"""`python -m kleinforge ...` runs the klein-forge command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
