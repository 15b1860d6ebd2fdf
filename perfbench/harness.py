"""Locating the program in the checkout and running one CLI job in-process."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLE = Path(__file__).resolve().parent / "table.json"


class ProgramMissing(RuntimeError):
    pass


def import_cli():
    """quadpartitions.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "quadpartitions" / "cli.py").is_file():
        raise ProgramMissing(f"no quadpartitions sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quadpartitions.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"quadpartitions was imported from {cli.__file__}, not {SRC}")
    return cli


def run_job(cli, argv: tuple[str, ...]) -> tuple[int, bytes, str]:
    """(exit code, stdout bytes, error text) of cli.main(argv) with output captured.

    Looks main up on the module at call time, so a traced wrapper is used.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse --help and friends
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing job is a failed job; the run goes on
        return -1, out.getvalue().encode(), traceback.format_exc()
    return rc, out.getvalue().encode(), err.getvalue()


def digest(stdout: bytes) -> str:
    """The first 64 bits of the SHA-256 of a job's stdout, in hex."""
    return hashlib.sha256(stdout).hexdigest()[:16]


def argv_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def load_table() -> dict[str, str]:
    """argv key -> digest of the stdout the program printed when the table was made."""
    return json.loads(TABLE.read_text(encoding="utf-8"))
