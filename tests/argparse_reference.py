"""The command line as argparse reads it, built from cli.command_table():
the reference that cli.parse_args must agree with, on namespaces and on
usage-error messages."""

import argparse
import sys

from chardeg import cli


class _ArgumentParser(argparse.ArgumentParser):
    # A usage error raises ValueError, as cli.parse_args does; the usage line
    # still goes to stderr.  Subparsers inherit the class.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per row of the command table, with its flags and its
    mutually exclusive groups."""
    parser = _ArgumentParser(prog="chardeg")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments, exclusive in cli.command_table():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        for group in exclusive:
            g = p.add_mutually_exclusive_group()
            for flag, kw in group:
                g.add_argument(flag, **kw)
    return parser
