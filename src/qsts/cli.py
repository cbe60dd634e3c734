"""Command-line front end: run protocols, verify tables, estimate efficiencies.

Subcommands: run | verify-tables | efficiency | sweep.  All output is
deterministic for a fixed seed; floats are serialised with 17 significant
digits so repeated invocations are byte-identical.

Exit codes: 0 success, 2 invalid arguments, 3 degenerate strategy,
4 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from itertools import product
from typing import Sequence

import numpy as np

from .efficiency import WEIGHTS, analytic_rate, cpro_monte_carlo, haar_sample
from .protocols import (
    FROZEN_TABLES,
    DegenerateChannelError,
    ProtocolRun,
    choose_m,
    p2_channels,
    run_nparty_bell,
    run_nparty_ghz,
    run_protocol1,
    run_protocol2,
    verify_table1,
    verify_table2,
)
from .states import InputQubit

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY_FAILED = 4

# fixed grid exercised by verify-tables
_VERIFY_WEIGHTS = (0.3, 0.7, 1.0)
_VERIFY_INPUTS = (
    InputQubit(0.6, 0.8j),
    InputQubit(1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0) * np.exp(-1j * np.pi / 7.0)),
)


class CliError(ValueError):
    """Invalid command-line configuration."""


# ── deterministic serialisation ──────────────────────────────────────────

def _format_float(value: float) -> str:
    return format(float(value), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with 17-significant-digit floats; rejects NaN and inf."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialise the non-finite number {obj!r} as JSON")
        return _format_float(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{key}": {render_json(val, indent + 1)}' for key, val in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _json_number(value) -> object:
    # real weights serialise as plain floats, complex ones as re/im pairs,
    # a weight tuple as a list
    if isinstance(value, tuple):
        return [_json_number(v) for v in value]
    value = complex(value)
    if value.imag == 0.0:
        return value.real
    return {"re": value.real, "im": value.imag}


def _csv(rows: list[dict]) -> str:
    """Rows sharing their keys as CSV: lists joined by '+', None empty."""
    def cell(value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, list):
            return "+".join(value)
        return "" if value is None else _format_float(value)
    return "\n".join([",".join(rows[0])] + [",".join(map(cell, row.values())) for row in rows])


def _emit(text: str, out_path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}") from exc


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


#: Each protocol's channel parameters as ``compile_params`` names them, and
#: the parameter that ``--receiver`` sets.
_PRESETS = {
    "p1": (("n",), "receiver"),
    "p2": (("n1", "n2"), "receiver"),
    "nparty-ghz": (("n", "parties"), "receiver_index"),
    "nparty-bell": (("ns",), "receiver_index"),
}


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


def _params(args, swept: tuple[str, float] | None = None) -> dict:
    """The ``compile_params`` dict that the flags give: weights, m, receiver.

    A ``sweep`` step passes its (name, value): that weight is not read from
    the flags, and m takes the value when m is swept or ``--m`` names it.
    """
    name, value = swept or (None, None)
    names, receiver_key = _PRESETS[args.protocol]
    names = [n for n in names if n != name]
    missing = ["--n-list" if n == "ns" else f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise CliError(f"{args.protocol} needs {' and '.join(missing)}")
    params = {n: _parse_weight(n, getattr(args, n)) for n in names}
    if name not in (None, "m"):
        params[name] = value
    receiver = getattr(args, "receiver", None)  # only ``run`` takes --receiver
    if receiver is not None:
        params[receiver_key] = receiver  # p2_channels reads a name, compile_params checks it
    tracks = name is not None and name in ("m", args.m)
    params["m"] = complex(value) if tracks else _resolve_m(args.m, params)
    if receiver is not None and receiver_key == "receiver_index":  # m's errors come first
        try:
            params[receiver_key] = int(receiver)
        except ValueError:
            raise CliError("--receiver must be a party index for many-party "
                           "protocols") from None
    return params


def _execute(protocol: str, source: InputQubit, params: dict) -> ProtocolRun:
    # the runners are looked up per call: perfbench/spans.py patches these names
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
        _emit(render_json(doc), args.out)
    else:
        _emit(_csv(branches), args.out)
    return EXIT_OK


def _cmd_verify_tables(args) -> int:
    corrupt = None
    if args.corrupt:
        corrupt = tuple(args.corrupt.split(","))
        if len(corrupt) != 2:
            raise CliError("--corrupt expects 'AliceLabel,HelperLabel'")
        if not any(corrupt in table for table in FROZEN_TABLES.values()):
            raise CliError(f"--corrupt names a row of neither table: {args.corrupt!r}")

    # worst fidelity gap per outcome row, aggregated over the fixed grid
    tables = (("table1", verify_table1, 1), ("table2", verify_table2, 2))
    worst: dict[tuple[str, str, str], float] = {}
    for m in _VERIFY_WEIGHTS:
        for source in _VERIFY_INPUTS:
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
        report = cpro_monte_carlo(args.protocol, params, args.samples, args.seed)
        doc = {"analytic": report.analytic, "estimate": report.estimate,
               "samples": report.samples, "std_error": report.std_error, "seed": report.seed}
    # complex weights have no closed form, and their report no "analytic" field
    _emit(render_json({key: value for key, value in doc.items() if value is not None}), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise CliError("--steps must be >= 1")
    if args.start > args.stop:
        raise CliError("--from must not exceed --to")
    swept = args.param
    if swept not in WEIGHTS[args.protocol]:
        raise CliError(f"--param must be one of {WEIGHTS[args.protocol]} for {args.protocol}")
    if args.steps == 1:
        values = [args.start]
    else:
        step = (args.stop - args.start) / (args.steps - 1)
        values = [args.start + i * step for i in range(args.steps)]
    if not all(map(math.isfinite, (args.start, args.stop, *values))):
        raise CliError("--from, --to and the span between them must be finite")

    rows = []
    for i, value in enumerate(values):
        params = _params(args, (swept, value))
        report = cpro_monte_carlo(args.protocol, params, args.samples, args.seed + i)
        rows.append({"param": swept, "value": value, "analytic": report.analytic,
                     "estimate": report.estimate, "std_error": report.std_error})
    _emit(_csv(rows), args.out)
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
    channel.add_argument("--protocol", required=True,
                         choices=("p1", "p2", "nparty-ghz", "nparty-bell"))
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
    p_eff.add_argument("--samples", type=int, default=10000)
    p_eff.add_argument("--analytic-only", action="store_true",
                       help="emit the closed form only, skip sampling")
    p_eff.set_defaults(func=_cmd_efficiency)

    p_sweep = sub.add_parser("sweep", parents=[output],
                             help="sweep one parameter, writing CSV")
    p_sweep.add_argument("--protocol", required=True, choices=("p1", "p2"))
    p_sweep.add_argument("--param", required=True, help="swept parameter name")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--n", help="fixed channel weight (p1)")
    p_sweep.add_argument("--n1", help="fixed first channel weight (p2)")
    p_sweep.add_argument("--n2", help="fixed second channel weight (p2)")
    p_sweep.add_argument("--m", default="1",
                         help="basis weight: number, strategy:<name>, or the "
                              "swept parameter's name to track it")
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
