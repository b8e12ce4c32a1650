"""Build and run the flow benchmark (flowbench.ml) in a checkout of the repository.

    python3 flowbench/run.py --workload anneal --seed 1 --seconds 10 --trace 0

Builds flowbench/flowbench.exe with dune (the first build in a checkout
compiles the whole library), then runs it with the same arguments.  Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.  Exits non-zero without a result when the current
directory is not the root of a checkout or the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "flowbench", "flowbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("flowbench: run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    dune = [dune] if dune else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--display", "quiet",
                    "./flowbench/flowbench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            print("flowbench: build failed", file=sys.stderr)
            return 1
        return subprocess.run([EXE] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"flowbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
