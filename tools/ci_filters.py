#!/usr/bin/env python3
"""Check that every `cargo test` command in the CI workflow selects a test.

A CI step names its suites by test filter (`--lib fleet::tests::…`,
`--test fleet_shards churned`).  A filter that matches nothing still
passes: `cargo test` runs zero tests and exits 0, so renaming a test
silently retires the CI line that named it.  This script runs each
`cargo test` command of the workflow with `-- --list` appended, counts the
tests it lists, and fails naming every command that lists none.

    python3 tools/ci_filters.py [--workflow .github/workflows/ci.yml]

Run it from the workspace root.  It builds whatever test binaries the
commands need, in the profile each command names, so run it after the
steps that build them.  Standard library only.
"""

import argparse
import shlex
import subprocess
import sys


def cargo_test_commands(workflow):
    """Every `cargo test` command in `workflow` (the YAML text), as an
    argument list, with backslash continuations joined and YAML comments
    skipped."""
    commands = []
    pending = ""
    for raw in workflow.splitlines():
        line = raw.strip()
        if pending:
            line = pending + " " + line
            pending = ""
        if line.endswith("\\"):
            pending = line[:-1].strip()
            continue
        if line.startswith("#"):
            continue
        if line.startswith("run:"):
            line = line[len("run:"):].strip()
        if line.startswith("cargo test"):
            commands.append(shlex.split(line))
    return commands


def listing(command):
    """`command` with the test harness asked to list, not run."""
    if "--" in command:
        return command + ["--list"]
    return command + ["--", "--list"]


def listed_tests(output):
    """How many tests a `--list` run printed."""
    return sum(1 for line in output.splitlines() if line.endswith(": test"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workflow", default=".github/workflows/ci.yml")
    args = parser.parse_args()
    with open(args.workflow, encoding="utf-8") as handle:
        commands = cargo_test_commands(handle.read())
    if not commands:
        print(f"no `cargo test` command found in {args.workflow}")
        return 1
    empty = []
    for command in commands:
        shown = " ".join(command)
        run = subprocess.run(listing(command), capture_output=True, text=True)
        if run.returncode != 0:
            print(f"FAILED  {shown}\n{run.stderr}")
            empty.append(shown)
            continue
        count = listed_tests(run.stdout)
        print(f"{count:5d}  {shown}")
        if count == 0:
            empty.append(shown)
    if empty:
        print(f"\n{len(empty)} of {len(commands)} commands select no test:")
        for shown in empty:
            print(f"  {shown}")
        return 1
    print(f"\nall {len(commands)} `cargo test` commands select at least one test")
    return 0


if __name__ == "__main__":
    sys.exit(main())
