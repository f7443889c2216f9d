"""`python -m guardian_sim ...` runs the command line of `guardian_sim.cli`."""
import sys

from .cli import main

sys.exit(main())
