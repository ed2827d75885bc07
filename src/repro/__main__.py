"""``python -m repro`` — the one command tree (:mod:`repro.analysis.cli`)."""

import sys

from repro.analysis.cli import main

if __name__ == "__main__":
    sys.exit(main())
