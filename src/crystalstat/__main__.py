"""Run the command-line interface: ``python -m crystalstat <subcommand> ...``."""

import sys

from .cli import main

sys.exit(main())
