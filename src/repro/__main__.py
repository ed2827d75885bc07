"""``python -m repro`` — the one command tree (:mod:`repro.analysis.cli`)."""

import sys

from repro.analysis.cli import main

sys.exit(main())
