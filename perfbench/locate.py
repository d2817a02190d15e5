"""Imports ghostfringe from the checkout under test, and from nowhere else."""

import sys
from pathlib import Path


def import_cli(root: Path):
    """Import ghostfringe.cli from root/src, refusing any other installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ghostfringe.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"ghostfringe imported from {cli.__file__}, not from {src}")
    return cli
