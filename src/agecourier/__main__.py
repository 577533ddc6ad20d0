"""`python -m agecourier <subcommand> --config FILE ...` runs the CLI."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
