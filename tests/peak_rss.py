"""``python tests/peak_rss.py CMD [ARG]...``: run CMD, then write its max RSS to stderr and exit with its code.

A process's max RSS counts the memory it ran in before its exec, so a
command started from a large process, such as a test runner, reports at
least that process's peak. This small process starts it instead.
"""

import os
import sys

if __name__ == "__main__":
    pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
    _, status, usage = os.wait4(pid, 0)
    print(f"max RSS KiB = {usage.ru_maxrss}", file=sys.stderr)  # Linux reports KiB
    sys.exit(os.waitstatus_to_exitcode(status))
