"""Run one ``fedl`` command as its console script does, timing its training steps.

    python3 bench/fedl_cmd.py STAMPS_JSON <fedl arguments...>

The exit code is the command's.  STAMPS_JSON receives, for every training
loop the command ran, ``[start, after step 1, ..., after step n, end]`` in
``time.perf_counter`` seconds.
"""

import sys

from hooks import run_cli

if __name__ == "__main__":
    sys.exit(run_cli(sys.argv[2:], sys.argv[1]))
