"""The CLI's contract over the accepted range: an exit code, never a traceback.

One subprocess caps its own address space with ``resource.setrlimit``, so an
unbounded allocation fails the test instead of the machine, and runs every
subcommand in-process through ``lecam.cli.main`` over a fixed grid of
instances at the edges of the accepted range: a census (n = N), a single
draw, N = 2^63 - 1, d = 1 ... 5, a weight ratio of 10^6 and n > 3N/4, and
the Monte Carlo subcommands where the sampler, not a table, draws.  Each
call must return 0 (success), 2 (usage), 3 (validation) or 4 (resource cap)
and raise nothing.  Where it succeeds, every reported TV lies in [0, 1] and
every bar is finite and non-negative.  It asserts the contract, not values.
"""

import json
import subprocess
import sys

from lecam.distances import TV_PAIRS

ADDRESS_SPACE = 2 * 10**9
MC = ["--samples", "10000", "--seed", "3"]
TOP = 2**63 - 1

# (N, n, counts): edges of the accepted range
INSTANCES = [
    (40, 12, (20, 20)),
    (12, 12, (4, 4, 4)),  # census, n = N
    (10, 1, (3, 7)),  # one draw
    (TOP, 10, (2**62, 2**62 - 1)),  # the largest int64 population
    (60, 6, (20, 20, 20)),
    (60, 6, (15,) * 4),
    (60, 6, (12,) * 5),
    (60, 6, (10,) * 6),  # d = 5
    (10**6 + 1, 20, (1, 10**6)),  # weight ratio 10^6
    (40, 35, (20, 20)),  # n > 3N/4, outside the bounds' regime
]
# (N, n, counts) whose count vectors outnumber the draws: Monte Carlo runs
# the sequential sampler, which no instance above reaches
SAMPLED = [
    (10**6, 2 * 10**4, (5 * 10**5,) * 2),
    (10**5, 9 * 10**4, (5 * 10**4,) * 2),  # 2n > N
    (10**6, 200, (25 * 10**4,) * 4),
    (6 * 10**5, 60, (10**5,) * 6),  # d = 5
]


def _commands(N, n, counts):
    """Every subcommand at one instance."""
    d = len(counts) - 1
    weights = ["--n", str(n), "--Np", ",".join(map(str, counts)), "--json"]
    common = ["--N", str(N), *weights]
    k = ",".join(str(min(c, n // (d + 1))) for c in counts[:d])
    off = ",".join([str(n + 1)] * d)
    yield ["pmf", "--dist", "hyper", *common, "--k", k]
    yield ["pmf", "--dist", "multi", *common, "--k", off]
    yield ["ratio", *common, "--k", k]
    yield ["ratio", *common, "--k", off]
    for pair in TV_PAIRS:
        yield ["tv", "--pair", pair, *common]
        yield ["tv", "--pair", pair, "--method", "mc", *MC, *common]
    yield ["bound-parts", *common]
    yield ["tail-check", *common]
    yield ["dpi-check", *common]
    yield ["lecam-scan", *common]
    yield ["lecam-scan", "--method", "mc", *MC, *common]
    populations = ",".join(str(N * j) for j in (1, 2, 3, 4) if N * j <= TOP)
    yield ["expansion-scan", "--N", populations, *weights, "--k", k]


def _sampled_commands(N, n, counts):
    """The Monte Carlo subcommands at one instance: a jittered law against
    the other or its Gaussian, and a Le Cam scan."""
    common = [*MC, "--N", str(N), "--n", str(n), "--Np", ",".join(map(str, counts)), "--json"]
    for pair in TV_PAIRS:
        if pair.startswith("jitter"):
            yield ["tv", "--pair", pair, "--method", "mc", *common]
    yield ["lecam-scan", "--method", "mc", *common]


GRID = [argv for instance in INSTANCES for argv in _commands(*instance)]
GRID += [argv for instance in SAMPLED for argv in _sampled_commands(*instance)]

# Runs in the subprocess: argv lists on stdin, one finding per line on stdout.
CHILD = f"""
import contextlib, io, json, math, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE},) * 2)
from lecam.cli import main

def findings(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception:  # MemoryError included
        yield traceback.format_exc(limit=-3)
        return
    if code not in (0, 2, 3, 4):
        yield f"exit {{code}}"
    if code != 0 or argv[0] not in ("tv", "dpi-check"):
        return
    doc = json.loads(out.getvalue())
    for name in ("tv", "tv_before", "tv_after"):
        if name in doc and not 0 <= doc[name] <= 1:
            yield f"{{name}} = {{doc[name]}}"
    for name in ("error_estimate", "combined_error"):
        if name in doc and not (math.isfinite(doc[name]) and doc[name] >= 0):
            yield f"{{name}} = {{doc[name]}}"

for argv in json.load(sys.stdin):
    for finding in findings(argv):
        print(json.dumps([argv, finding]))
"""


def test_every_subcommand_exits_with_a_code_and_reports_bars_in_range(tmp_path):
    unwritable = str(tmp_path / "missing" / "x.csv")
    grid = GRID + [
        ["lecam-scan", "--n", "4", "--Np", "1,1", "--out", unwritable],
        ["expansion-scan", "--N", "16,32,64,128", "--n", "8", "--Np", "1,1", "--k", "2",
         "--out", unwritable],
    ]
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(grid),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", proc.stdout
