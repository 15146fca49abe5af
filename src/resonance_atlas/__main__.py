"""``python -m resonance_atlas``: the resonance-atlas command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
