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


def _json_number(value: complex) -> object:
    # real weights serialise as plain floats, complex ones as re/im pairs
    value = complex(value)
    if value.imag == 0.0:
        return value.real
    return {"re": value.real, "im": value.imag}


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
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


def _channel_params(args, swept: str | None = None) -> dict:
    """Extract and validate the channel weights demanded by the protocol.

    A ``sweep`` passes its swept parameter, whose weight is not read.
    """
    protocol = args.protocol
    if protocol in WEIGHTS:
        names = [name for name in WEIGHTS[protocol][:-1] if name != swept]
        missing = [f"--{name}" for name in names if getattr(args, name) is None]
        if missing:
            raise CliError(f"{protocol} needs {' and '.join(missing)}")
        return {name: _parse_complex(getattr(args, name), f"--{name}") for name in names}
    if protocol == "nparty-ghz":
        if args.n is None or args.parties is None:
            raise CliError("nparty-ghz needs --n and --parties")
        return {"n": _parse_complex(args.n, "--n"), "parties": int(args.parties)}
    if args.n_list is None:
        raise CliError("nparty-bell needs --n-list")
    ns = tuple(_parse_complex(p, "--n-list") for p in args.n_list.split(","))
    return {"ns": ns}


def _resolve_m(m_text: str, channel: dict, receiver: str | None = None) -> complex:
    if not m_text.startswith("strategy:"):
        return _parse_complex(m_text, "--m")
    weights = {name: value for name, value in channel.items() if name != "parties"}
    if receiver == "bob" and "n2" in weights:
        # choose_m takes p2's helper channel as n1 and the receiver's as n2
        weights = {"n1": weights["n2"], "n2": weights["n1"]}
    return choose_m(m_text.split(":", 1)[1], **weights)


def _parse_receiver(args, protocol: str):
    # compile_params checks the p1/p2 receiver names
    text = args.receiver
    if protocol in WEIGHTS:
        return "charlie" if text is None else text
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise CliError("--receiver must be a party index for many-party protocols") from None


def _execute(protocol: str, source: InputQubit, channel: dict, m: complex, receiver) -> ProtocolRun:
    if protocol == "p1":
        return run_protocol1(source, channel["n"], m, receiver)
    if protocol == "p2":
        return run_protocol2(source, channel["n1"], channel["n2"], m, receiver)
    if protocol == "nparty-ghz":
        return run_nparty_ghz(source, channel["parties"], channel["n"], m, receiver)
    return run_nparty_bell(source, channel["ns"], m, receiver)


# ── subcommands ──────────────────────────────────────────────────────────

def _cmd_run(args) -> int:
    channel = _channel_params(args)
    m = _resolve_m(args.m, channel, args.receiver)
    source = _parse_input(args.input, args.seed)
    receiver = _parse_receiver(args, args.protocol)
    run = _execute(args.protocol, source, channel, m, receiver)

    params: dict = {}
    for key, value in run.params.items():
        if key == "parties":
            params[key] = value
        elif key == "ns":
            params[key] = [_json_number(v) for v in value]
        else:
            params[key] = _json_number(value)
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
            "params": params,
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
        lines = ["alice,helpers,probability,fidelity,correction"]
        for b in branches:
            lines.append(
                f"{b['alice']},{'+'.join(b['helpers'])},"
                f"{_format_float(b['probability'])},{_format_float(b['fidelity'])},"
                f"{b['correction']}"
            )
        _emit("\n".join(lines), args.out)
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
    channel = _channel_params(args)
    params = {**channel, "m": _resolve_m(args.m, channel)}
    if args.analytic_only:
        analytic = analytic_rate(args.protocol, params)
        if analytic is None:
            raise CliError("no closed form for this protocol/parameter combination")
        _emit(render_json({"analytic": analytic}), args.out)
        return EXIT_OK
    report = cpro_monte_carlo(args.protocol, params, args.samples, args.seed)
    doc: dict = {}
    if report.analytic is not None:
        doc["analytic"] = report.analytic
    doc.update(
        estimate=report.estimate,
        samples=report.samples,
        std_error=report.std_error,
        seed=report.seed,
    )
    _emit(render_json(doc), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise CliError("--steps must be >= 1")
    if args.start > args.stop:
        raise CliError("--from must not exceed --to")
    swept = args.param
    if swept not in WEIGHTS[args.protocol]:
        raise CliError(f"--param must be one of {WEIGHTS[args.protocol]} for {args.protocol}")
    fixed = _channel_params(args, swept)
    if args.steps == 1:
        values = [args.start]
    else:
        step = (args.stop - args.start) / (args.steps - 1)
        values = [args.start + i * step for i in range(args.steps)]

    lines = ["param,value,analytic,estimate,std_error"]
    for i, value in enumerate(values):
        channel = fixed if swept == "m" else {**fixed, swept: value}
        if swept in ("m", args.m):
            m = complex(value)  # the basis weight is, or tracks, the swept weight
        else:
            m = _resolve_m(args.m, channel)
        params = {**channel, "m": m}
        report = cpro_monte_carlo(args.protocol, params, args.samples, args.seed + i)
        analytic = "" if report.analytic is None else _format_float(report.analytic)
        lines.append(
            f"{swept},{_format_float(value)},{analytic},"
            f"{_format_float(report.estimate)},{_format_float(report.std_error)}"
        )
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ── parser ───────────────────────────────────────────────────────────────

def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", help="channel weight (p1, nparty-ghz)")
    parser.add_argument("--n1", help="first channel weight (p2)")
    parser.add_argument("--n2", help="second channel weight (p2)")
    parser.add_argument("--n-list", help="comma-separated channel weights (nparty-bell)")
    parser.add_argument("--parties", type=int, help="party count (nparty-ghz)")
    parser.add_argument("--m", required=True,
                        help="basis weight: a number or strategy:<name>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsts",
        description="Simulate and verify quantum state sharing over "
                    "partially entangled channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one protocol, reporting every branch")
    p_run.add_argument("--protocol", required=True,
                       choices=("p1", "p2", "nparty-ghz", "nparty-bell"))
    _add_channel_flags(p_run)
    p_run.add_argument("--input", default="haar",
                       help="'a_re,a_im,b_re,b_im' or 'haar[:seed]' (default haar)")
    p_run.add_argument("--receiver", help="bob|charlie or a party index")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out", help="output path (default stdout)")
    p_run.add_argument("--seed", type=_seed, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify-tables",
                              help="check every outcome row over a fixed grid")
    p_verify.add_argument("--tolerance", type=float, default=1e-10)
    p_verify.add_argument("--corrupt", help="negative control: 'AliceLabel,HelperLabel'")
    p_verify.set_defaults(func=_cmd_verify_tables)

    p_eff = sub.add_parser("efficiency", help="estimate the average transmission rate")
    p_eff.add_argument("--protocol", required=True,
                       choices=("p1", "p2", "nparty-ghz", "nparty-bell"))
    _add_channel_flags(p_eff)
    p_eff.add_argument("--samples", type=int, default=10000)
    p_eff.add_argument("--seed", type=_seed, default=0)
    p_eff.add_argument("--threads", type=int,
                       help="accepted and ignored: the estimator runs in one thread")
    p_eff.add_argument("--analytic-only", action="store_true",
                       help="emit the closed form only, skip sampling")
    p_eff.add_argument("--out", help="output path (default stdout)")
    p_eff.set_defaults(func=_cmd_efficiency)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, writing CSV")
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
    p_sweep.add_argument("--seed", type=_seed, default=0)
    p_sweep.add_argument("--out", help="output path (default stdout)")
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
