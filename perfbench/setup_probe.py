"""Fresh-interpreter probe behind `setup_s`: import mpmath, then the
`cuspidal` CLI from the source directory given as argv[1], answer
`cusps 1 --json`, and print the CPU split as one JSON line after the
command's own report."""

import sys
import time

start = time.process_time()
sys.path.insert(0, sys.argv[1])
import mpmath  # noqa: E402,F401

after_mpmath = time.process_time()
from cuspidal.cli import main  # noqa: E402

after_cuspidal = time.process_time()
code = main(["cusps", "1", "--json"])
end = time.process_time()

import json  # noqa: E402  (already loaded by the CLI)

print(
    json.dumps(
        {
            "exit_code": code,
            "mpmath_import_s": after_mpmath - start,
            "cuspidal_import_s": after_cuspidal - after_mpmath,
            "command_s": end - after_cuspidal,
        }
    )
)
