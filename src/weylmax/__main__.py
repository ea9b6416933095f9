"""Entry point for ``python -m weylmax``."""

from .cli import main

if __name__ == "__main__":
    main()
