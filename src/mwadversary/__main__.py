"""``python -m mwadversary``: the same command line as the ``mwadversary`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
