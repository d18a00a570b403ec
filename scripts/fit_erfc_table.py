"""Fit the piecewise polynomial table behind ``lecam.distances._erfc``.

For x >= 0 the kernel writes erfc(x) = g(x) / (1 + 2x) * exp(-x^2) with
g(x) = (1 + 2x) erfcx(x), which runs from 1 at x = 0 to 2/sqrt(pi) at
infinity and stays below 1.3 between.  The map y = (x - 4) / (x + 4) takes
[0, inf) onto [-1, 1); the table cuts [-1, 1) into PIECES equal pieces and
interpolates g on each by a polynomial of degree DEGREE at the Chebyshev
nodes, with g evaluated by mpmath at DIGITS significant digits.  Piece k
covers k <= u < k + 1 of u = PIECES (y + 1) / 2 = PIECES x / (x + 4), and its
row holds the coefficients in v = u - k from the highest degree down, as
Horner's rule reads them.  Each coefficient is rounded once to a double and
written as its shortest repr, one row of text per piece: parsing that text
at import costs a tenth of what compiling as many float literals does.

Run from the repository root:

    python scripts/fit_erfc_table.py            # write src/lecam/_erfc_table.py
    python scripts/fit_erfc_table.py --check    # refit; exit 1 if the file differs

mpmath is needed here only; the package reads the literals.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

PIECES = 64
DEGREE = 7
DIGITS = 40
TABLE_PATH = Path(__file__).resolve().parents[1] / "src" / "lecam" / "_erfc_table.py"

HEADER = '''"""Piecewise polynomial table for ``distances._erfc``; do not edit by hand.

Written by ``scripts/fit_erfc_table.py``, which refits it with mpmath and
whose ``--check`` mode compares it with this file.  Row k interpolates
g(x) = (1 + 2x) erfcx(x) on the piece k <= u < k + 1 of
u = {pieces} x / (x + 4) = {half} (y + 1), y = (x - 4) / (x + 4), as a
polynomial of degree {degree} in v = u - k, at the Chebyshev nodes; its
coefficients run from the highest degree down, each the shortest repr
of a double, one row per line.
"""

ERFC_TABLE = """
'''


def g(u: mpmath.mpf) -> mpmath.mpf:
    """(1 + 2x) erfcx(x) at x = 4u / (PIECES - u), the inverse of u(x)."""
    x = 4 * u / (PIECES - u)
    return (1 + 2 * x) * mpmath.exp(x * x) * mpmath.erfc(x)


def chebyshev_nodes() -> list[mpmath.mpf]:
    """The DEGREE + 1 Chebyshev nodes of [0, 1], all interior."""
    count = DEGREE + 1
    return [(1 + mpmath.cos((2 * j + 1) * mpmath.pi / (2 * count))) / 2 for j in range(count)]


def fit_piece(k: int, nodes: list[mpmath.mpf]) -> list[float]:
    """Coefficients of piece k in v = u - k, highest degree first."""
    vandermonde = mpmath.matrix([[v**i for i in range(DEGREE + 1)] for v in nodes])
    values = mpmath.matrix([g(k + v) for v in nodes])
    coeffs = mpmath.lu_solve(vandermonde, values)
    return [float(coeffs[i]) for i in reversed(range(DEGREE + 1))]


def fit_table() -> list[list[float]]:
    with mpmath.workdps(DIGITS):
        nodes = chebyshev_nodes()
        return [fit_piece(k, nodes) for k in range(PIECES)]


def render(table: list[list[float]]) -> str:
    rows = "".join(" ".join(map(repr, row)) + "\n" for row in table)
    return HEADER.format(pieces=PIECES, half=PIECES // 2, degree=DEGREE) + rows + '"""\n'


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="refit and fail if the committed table differs")
    args = parser.parse_args(argv)
    text = render(fit_table())
    if args.check:
        if not TABLE_PATH.exists() or TABLE_PATH.read_text() != text:
            print(f"{TABLE_PATH} differs from a fresh fit; rerun this script",
                  file=sys.stderr)
            return 1
        print(f"{TABLE_PATH.name} matches a fresh fit")
        return 0
    TABLE_PATH.write_text(text)
    print(f"wrote {TABLE_PATH}: {PIECES} pieces of degree {DEGREE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
