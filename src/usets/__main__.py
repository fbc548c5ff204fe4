"""``python -m usets``: the same command line as the ``usets`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
