"""`python -m ghostfringe` runs the `ghostfringe` command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
