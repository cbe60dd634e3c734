"""Command-line front end: run protocols, verify tables, estimate efficiencies.

Subcommands: run | verify-tables | efficiency | sweep.  All output is
deterministic for a fixed seed: every float, in JSON, CSV and verify-tables
lines alike, is written as its shortest round-trip repr (integral values keep
their ``.0``), so repeated invocations are byte-identical.

Exit codes: 0 success, 2 invalid arguments, 3 degenerate strategy,
4 verification failure.

Only ``rules`` is imported with this module, so argument errors, strategy
resolution and ``efficiency --analytic-only`` run without numpy.  Each
command imports the engine modules that it calls, so ``verify-tables`` and
``run`` with an explicit ``--input`` do not load ``qsts.efficiency``.
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import math
import operator
import sys
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .rules import (PRESETS, WEIGHTS, DegenerateChannelError, InputQubit, analytic_rate,
                    check_params, choose_m, p2_channels)

if TYPE_CHECKING:
    from .protocols import ProtocolRun

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY_FAILED = 4

# fixed grid exercised by verify-tables
_VERIFY_WEIGHTS = (0.3, 0.7, 1.0)

#: The engine names that perfbench/spans.py patches on this module.  It reads
#: each one before replacing it, so they resolve here through the package's
#: lazy map; the commands import what they call when they run.
_TRACED = ("run_protocol1", "run_protocol2", "run_nparty_ghz", "run_nparty_bell",
           "verify_table1", "verify_table2", "cpro_monte_carlo", "haar_sample")


def __getattr__(name: str):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(__package__), name)


class CliError(ValueError):
    """Invalid command-line configuration."""


# ── deterministic serialisation ──────────────────────────────────────────

def _format_float(value: float) -> str:
    return repr(float(value))


def render_json(obj) -> str:
    """``obj`` as JSON in two-space indents, each float as its shortest round-trip
    repr and numpy integers as integers; NaN and inf raise ValueError."""
    import json  # only the commands that print JSON pay for it
    return json.dumps(obj, indent=2, allow_nan=False, default=operator.index)


def _json_number(value) -> object:
    # real weights serialise as plain floats, complex ones as re/im pairs,
    # a weight tuple as a list
    if isinstance(value, tuple):
        return [_json_number(v) for v in value]
    value = complex(value)
    if value.imag == 0.0:
        return value.real
    return {"re": value.real, "im": value.imag}


def _csv(rows: Iterable[dict]) -> Iterator[str]:
    """Rows sharing their keys as CSV lines, the header with the first row:
    lists joined by '+', None empty."""
    def cell(value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, list):
            return "+".join(value)
        return "" if value is None else _format_float(value)
    for i, row in enumerate(rows):
        header = "" if i else ",".join(row) + "\n"
        yield header + ",".join(map(cell, row.values())) + "\n"


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write and flush each chunk as it comes, to stdout or to ``out_path``,
    which is opened with the first chunk: a refusal before it makes no file."""
    out = None
    try:
        for chunk in chunks:
            if out is None:
                out = sys.stdout if out_path is None else open(out_path, "w", encoding="utf-8")
            out.write(chunk)
            out.flush()
    except OSError as exc:
        if out_path is None:
            raise
        raise CliError(f"cannot write {out_path}: {exc}") from exc
    finally:
        if out is not None and out_path is not None:
            out.close()


# ── argument parsing helpers ─────────────────────────────────────────────

def _parse_complex(text: str, flag: str) -> complex:
    try:
        value = complex(text)
    except ValueError:
        raise CliError(f"{flag} expects a number, got {text!r}") from None
    if not cmath.isfinite(value):
        raise CliError(f"{flag} expects a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of a seed: numpy takes only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _parse_input(text: str, default_seed: int) -> InputQubit:
    if text == "haar" or text.startswith("haar:"):
        try:
            seed = default_seed if text == "haar" else _seed(text.split(":", 1)[1])
        except argparse.ArgumentTypeError as exc:
            raise CliError(f"--input: {exc}") from None
        import numpy as np
        from .efficiency import haar_sample
        return haar_sample(np.random.default_rng(seed))
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError("--input expects 'haar[:seed]' or 'a_re,a_im,b_re,b_im'")
    try:
        a_re, a_im, b_re, b_im = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"--input has a non-numeric component: {text!r}") from None
    try:
        return InputQubit(complex(a_re, a_im), complex(b_re, b_im))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_weight(name: str, value):
    if name == "ns":
        return tuple(_parse_complex(p, "--n-list") for p in value.split(","))
    return value if name == "parties" else _parse_complex(value, f"--{name}")


def _resolve_m(text: str, params: dict) -> complex:
    if not text.startswith("strategy:"):
        return _parse_complex(text, "--m")
    if "n1" in params:  # p2: choose_m reads the helper's channel, then the receiver's
        weights = dict(zip(("n1", "n2"), p2_channels(params)))
    else:
        weights = {key: params[key] for key in ("n", "ns") if key in params}
    return choose_m(text.split(":", 1)[1], **weights)


#: Each parameter's flag by its dest, in the order an error names them.
_FLAGS = {"n": "--n", "n1": "--n1", "n2": "--n2", "parties": "--parties", "ns": "--n-list",
          "m": "--m"}


def _params(args, swept: tuple[str, float] | None = None) -> dict:
    """The ``compile_params`` dict that the flags give: weights, m, receiver.

    A ``sweep`` step passes its (name, value): that weight is not read from
    the flags, and m takes the value when m is swept or ``--m`` names it.
    Without ``--m``, which only ``sweep`` leaves optional, m is 1.  A flag
    that is not read, the swept weight's own included, is refused after
    every other check.
    """
    name, value = swept or (None, None)
    preset = PRESETS[args.protocol]  # every parameter but m is the dest of a flag
    names = [n for n in preset.params if n not in ("m", name)]
    missing = [_FLAGS[n] for n in names if getattr(args, n) is None]
    if missing:
        raise CliError(f"{args.protocol} needs {' and '.join(missing)}")
    params = {n: _parse_weight(n, getattr(args, n)) for n in names}
    if name not in (None, "m"):
        params[name] = value
    receiver = args.receiver
    if receiver is not None:
        params[preset.receiver] = receiver  # p2_channels reads a name, compile_params checks it
    m = "1" if args.m is None else args.m
    tracks = name is not None and name in ("m", m)
    params["m"] = complex(value) if tracks else _resolve_m(m, params)
    if receiver is not None and preset.receiver == "receiver_index":  # m's errors come first
        try:
            params[preset.receiver] = int(receiver)
        except ValueError:
            raise CliError("--receiver must be a party index for many-party "
                           "protocols") from None
    read = {*names, "m"} - {name}
    unread = [flag for n, flag in _FLAGS.items()
              if getattr(args, n, None) is not None and n not in read]
    if unread:
        subject = args.protocol if name is None else f"{args.protocol} sweeping {name}"
        raise CliError(f"{subject} takes no {', '.join(unread)}")
    return params


def _execute(protocol: str, source: InputQubit, params: dict) -> ProtocolRun:
    from .protocols import run_nparty_bell, run_nparty_ghz, run_protocol1, run_protocol2
    if protocol == "nparty-ghz":
        params = dict(params)
        return run_nparty_ghz(source, params.pop("parties"), **params)
    runner = {"p1": run_protocol1, "p2": run_protocol2, "nparty-bell": run_nparty_bell}
    return runner[protocol](source, **params)


# ── subcommands ──────────────────────────────────────────────────────────

def _cmd_run(args) -> int:
    params = _params(args)
    source = _parse_input(args.input, args.seed)
    run = _execute(args.protocol, source, params)
    branches = [
        {
            "alice": b.alice_label,
            "helpers": list(b.helper_labels),
            "probability": b.probability,
            "fidelity": b.fidelity,
            "correction": b.correction.name,
        }
        for b in run.branches
    ]
    if args.format == "json":
        doc = {
            "protocol": run.protocol,
            "params": {key: _json_number(value) for key, value in run.params.items()},
            "receiver": run.receiver,
            "input": {
                "alpha_re": source.alpha.real,
                "alpha_im": source.alpha.imag,
                "beta_re": source.beta.real,
                "beta_im": source.beta.imag,
            },
            "branches": branches,
            "success_probability": run.success_probability,
            "classical_bits": run.branches[0].classical_bits,
        }
        _emit([render_json(doc) + "\n"], args.out)
    else:
        _emit(["".join(_csv(branches))], args.out)
    return EXIT_OK


def _cmd_verify_tables(args) -> int:
    import numpy as np
    from .bases import BELL_LABELS, GHZ_LABELS, X_LABELS
    from .protocols import verify_table1, verify_table2
    inputs = (
        InputQubit(0.6, 0.8j),
        InputQubit(1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0) * np.exp(-1j * np.pi / 7.0)),
    )
    corrupt = None
    if args.corrupt:
        corrupt = tuple(args.corrupt.split(","))
        if len(corrupt) != 2:
            raise CliError("--corrupt expects 'AliceLabel,HelperLabel'")
        if corrupt[0] not in BELL_LABELS + GHZ_LABELS or corrupt[1] not in X_LABELS:
            raise CliError(f"--corrupt names a row of neither table: {args.corrupt!r}")

    # worst fidelity gap per outcome row, aggregated over the fixed grid
    tables = (("table1", verify_table1, 1), ("table2", verify_table2, 2))
    worst: dict[tuple[str, str, str], float] = {}
    for m in _VERIFY_WEIGHTS:
        for source in inputs:
            for table, verify, channels in tables:
                for ns in product(_VERIFY_WEIGHTS, repeat=channels):
                    for check in verify(*ns, m, source, args.tolerance, corrupt):
                        key = (table, check.alice_label, check.helper_label)
                        if check.fidelity_to_expected is not None:
                            worst[key] = min(worst.get(key, 1.0), check.fidelity_to_expected)

    failures = 0
    for (table, alice, helper), fid in worst.items():
        ok = fid >= 1.0 - args.tolerance
        status = "PASS" if ok else "FAIL"
        print(f"{status} {table} {alice}/{helper} min_fidelity={_format_float(fid)}")
        failures += 0 if ok else 1
    total = len(worst)
    print(f"{total - failures}/{total} rows within tolerance {_format_float(args.tolerance)}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _cmd_efficiency(args) -> int:
    params = _params(args)
    if args.analytic_only:
        doc = {"analytic": analytic_rate(args.protocol, params)}
        if doc["analytic"] is None:
            raise CliError("no closed form for this protocol/parameter combination")
    else:
        from .efficiency import cpro_monte_carlo
        report = cpro_monte_carlo(args.protocol, params, args.samples, args.seed)
        doc = {"analytic": report.analytic, "estimate": report.estimate,
               "samples": report.samples, "std_error": report.std_error, "seed": report.seed}
    # complex weights have no closed form, and their report no "analytic" field
    _emit([render_json({key: value for key, value in doc.items() if value is not None}) + "\n"],
          args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise CliError("--steps must be >= 1")
    if args.steps - 1 > sys.float_info.max:  # the span is divided by steps - 1 as a double
        raise CliError("--steps must lie within the range of a double")
    if args.start > args.stop:
        raise CliError("--from must not exceed --to")
    swept = args.param
    if swept not in WEIGHTS[args.protocol]:
        raise CliError(f"--param must be one of {WEIGHTS[args.protocol]} for {args.protocol}")
    # each value is computed when its step runs; with one step it is --from
    # itself, since x + 0 * -0.0 is x bitwise, even at x = -0.0
    step = (args.stop - args.start) / (args.steps - 1) if args.steps > 1 else -0.0
    last = args.start + (args.steps - 1) * step  # the values rise from --from to it
    if not all(map(math.isfinite, (args.start, args.stop, step, last))):
        raise CliError("--from, --to and the span between them must be finite")

    # check every step first, so a refusal comes before any output or numpy
    for i in range(args.steps):
        check_params(args.protocol, _params(args, (swept, args.start + i * step)))
    from .efficiency import cpro_monte_carlo

    def rows():  # one per step, written as the step finishes
        for i in range(args.steps):
            value = args.start + i * step
            report = cpro_monte_carlo(args.protocol, _params(args, (swept, value)),
                                      args.samples, args.seed + i)
            yield {"param": swept, "value": value, "analytic": report.analytic,
                   "estimate": report.estimate, "std_error": report.std_error}
    _emit(_csv(rows()), args.out)
    return EXIT_OK


# ── parser ───────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsts",
        description="Simulate and verify quantum state sharing over "
                    "partially entangled channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--seed", type=_seed, default=0)
    output.add_argument("--out", help="output path (default stdout)")

    channel = argparse.ArgumentParser(add_help=False)
    channel.add_argument("--protocol", required=True, choices=tuple(PRESETS))
    channel.add_argument("--n", help="channel weight (p1, nparty-ghz)")
    channel.add_argument("--n1", help="first channel weight (p2)")
    channel.add_argument("--n2", help="second channel weight (p2)")
    channel.add_argument("--n-list", dest="ns", metavar="N_LIST",
                         help="comma-separated channel weights (nparty-bell)")
    channel.add_argument("--parties", type=int, help="party count (nparty-ghz)")
    channel.add_argument("--m", required=True,
                         help="basis weight: a number or strategy:<name>")

    p_run = sub.add_parser("run", parents=[channel, output],
                           help="run one protocol, reporting every branch")
    p_run.add_argument("--input", default="haar",
                       help="'a_re,a_im,b_re,b_im' or 'haar[:seed]' (default haar)")
    p_run.add_argument("--receiver", help="bob|charlie or a party index")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify-tables",
                              help="check every outcome row over a fixed grid")
    p_verify.add_argument("--tolerance", type=float, default=1e-10)
    p_verify.add_argument("--corrupt", help="negative control: 'AliceLabel,HelperLabel'")
    p_verify.set_defaults(func=_cmd_verify_tables)

    p_eff = sub.add_parser("efficiency", parents=[channel, output],
                           help="estimate the average transmission rate")
    p_eff.add_argument("--receiver", help="bob|charlie or a party index")
    p_eff.add_argument("--samples", type=int, default=10000)
    p_eff.add_argument("--analytic-only", action="store_true",
                       help="emit the closed form only, skip sampling")
    p_eff.set_defaults(func=_cmd_efficiency)

    p_sweep = sub.add_parser("sweep", parents=[output],
                             help="sweep one parameter, writing CSV")
    p_sweep.add_argument("--protocol", required=True, choices=tuple(WEIGHTS))
    p_sweep.add_argument("--param", required=True, help="swept parameter name")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--n", help="fixed channel weight (p1)")
    p_sweep.add_argument("--n1", help="fixed first channel weight (p2)")
    p_sweep.add_argument("--n2", help="fixed second channel weight (p2)")
    p_sweep.add_argument("--m", help="basis weight (default 1): number, strategy:<name>, "
                                     "or the swept parameter's name to track it")
    p_sweep.add_argument("--receiver", help="bob|charlie (default charlie)")
    p_sweep.add_argument("--samples", type=int, default=10000)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def _attach_dash_values(argv: Sequence[str]) -> list[str]:
    """Join ``--flag -value`` into ``--flag=-value``.

    argparse takes only ``-1``/``-0.5``-style tokens for values, so it would
    read ``--n -1e308``, ``--n -0.5+0.3j`` or ``--n-list -0.5,0.3`` as two
    options.  Every option here except ``-h`` is a ``--`` flag, so a token
    with one leading dash can only be a value.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token.startswith("-") and not token.startswith("--") and token != "-h"
                and prev.startswith("--") and len(prev) > 2 and "=" not in prev):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except DegenerateChannelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:  # CliError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
