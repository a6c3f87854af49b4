"""Command-line surface.  JSON output by default, CSV for batch pipelines.

Usage errors exit 2 (argparse); domain errors, and an ``--out`` path that
cannot be written, exit 1 with a JSON error object on stderr.  Every
schema carries "schema": 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import admissibility, entropy, inclusion, measures, sieve, sturmian
from .core import BinaryWord, BSet, CylinderSpec, OdometerPoint, validate_bset
from .errors import BFreeError

SCHEMA = 1


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; the empty string is the empty list."""
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _int_groups(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated groups of comma-separated integers."""
    return tuple(_int_list(group) for group in text.split(";"))


def _bset(moduli: tuple[int, ...]) -> BSet:
    return validate_bset(sorted(moduli))


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction or decimal, got {text!r}") from None


def _seed(text: str) -> int:
    """A sampler seed, an integer in [0, 2^64)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}") from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {seed} is outside [0, 2^64)")
    return seed


def _alpha(text: str) -> str | Fraction:
    return text if text == "golden" else _fraction(text)


def _interval(text: str) -> tuple[Fraction, Fraction]:
    try:
        a, b = text.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from None
    return _fraction(a), _fraction(b)


def _parse_profile(bset: BSet, s: tuple[int, ...], a: tuple[tuple[int, ...], ...]) -> sieve.SAProfile:
    return sieve.SAProfile(bset, s, tuple(frozenset(group) for group in a))


def _word(args) -> BinaryWord:
    return BinaryWord.from_string(args.word, getattr(args, "offset", 0) or 0)


def _eta(args) -> dict:
    lo, hi = args.window
    word = sieve.eta_window(_bset(args.bset), lo, hi)
    return {"word": json.loads(word.to_json())}


def _phi(args) -> dict:
    bset = _bset(args.bset)
    omega = OdometerPoint(bset, args.omega)
    lo, hi = args.window
    return {"word": json.loads(sieve.phi_window(omega, lo, hi).to_json())}


def _admissible(args) -> dict:
    bset = _bset(args.bset)  # a bad --bset is refused before the word loads numpy
    return {"admissible": admissibility.is_admissible(_word(args), bset)}


def _complexity(args) -> dict:
    p = admissibility.block_complexity(_bset(args.bset), args.n)
    h = admissibility.entropy_from_complexity(p)
    return {"p_n": [str(x) for x in p], "h_n": h}


def _require(args, mode: str, *flags: str) -> None:
    # a flag that only some modes need cannot be required by argparse itself
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        args.usage_error(f"{mode} requires {', '.join(missing)}")


def _entropy(args) -> dict:
    needs = {"bfree": ("bset",), "product": ("bset", "p"),
             "generalized": ("bset", "s", "a"), "periodic": ("block",)}
    _require(args, f"--formula {args.formula}", *needs[args.formula])
    if args.formula == "bfree":
        report = entropy.htop_bfree(_bset(args.bset))
    elif args.formula == "product":
        report = entropy.h_product_type(_bset(args.bset), args.p)
    elif args.formula == "generalized":
        report = entropy.htop_generalized(
            _parse_profile(_bset(args.bset), args.s, args.a)
        )
    else:
        report = entropy.htop_periodic_hereditary(BinaryWord.from_string(args.block))
    return json.loads(report.to_json())


def _mirsky(args) -> dict:
    both = sorted(set(args.ones) & set(args.zeros))
    if both:
        args.usage_error(f"positions {both} are in both --ones and --zeros")
    bset = _bset(args.bset)
    entries = {**{n: 1 for n in args.ones}, **{n: 0 for n in args.zeros}}
    value = measures.mixed_cylinder(bset, CylinderSpec(entries))
    return {"probability": str(value), "float": float(value)}


def _sample(args) -> dict:
    bset = _bset(args.bset)
    lo, hi = args.window
    if args.measure == "mirsky":
        batch = measures.sample_mirsky(bset, lo, hi, args.count, args.seed)
    elif args.measure in ("mme", "product"):
        p = Fraction(1, 2) if args.measure == "mme" else args.p
        batch = measures.sample_product(
            measures.ProductMeasureSpec(bset, p), lo, hi, args.count, args.seed
        )
    else:
        _require(args, "--measure generalized", "s", "a")
        profile = _parse_profile(bset, args.s, args.a)
        batch = measures.sample_generalized(
            profile, args.p, lo, hi, args.count, args.seed
        )
    return {
        "metadata": json.loads(batch.metadata_json()),
        "words": [row.tobytes().decode("ascii") for row in batch.bits + ord("0")],
    }


def _spectrum(args) -> dict:
    profile = admissibility.spectrum_profile(_word(args), _bset(args.bset))
    return {"profile": json.loads(profile.to_json())}


def _theta(args) -> dict:
    out = []
    for cand in admissibility.theta_window(_word(args), _bset(args.bset)):
        if cand is None:
            out.append(None)
        elif len(cand) == 1:
            out.append({"unique": next(iter(cand))})
        else:
            out.append({"ambiguous": sorted(cand)})
    return {"theta": out}


def _include(args) -> dict:
    witness = inclusion.inclusion_witness(_bset(args.bset), _bset(args.other))
    return {
        "includes": witness is None,
        "witness": json.loads(witness.to_json()) if witness is not None else None,
    }


def _construct_admissible(args) -> dict:
    result = inclusion.construct_admissible(list(args.small), args.bprime)
    return {"set": sorted(result)}


def _density(args) -> dict:
    est = inclusion.density_estimate(_bset(args.bset), args.c, args.r, args.horizon)
    return {"density": est}


def _sturmian(args) -> dict:
    if args.alpha == "golden":
        coding = sturmian.RotationCoding.golden(args.y, args.interval)
    else:
        coding = sturmian.RotationCoding.from_real(args.alpha, args.y, args.interval)
    lo, hi = args.window
    return {"word": json.loads(sturmian.sturmian_window(coding, lo, hi).to_json())}


def _counterexample(args) -> dict:
    sys_a, sys_b = sturmian.two_mme_system()
    target = sys_a.block
    return {
        "blocks": [sys_a.block.to_string(), sys_b.block.to_string()],
        "entropies_bits": [
            str(entropy.htop_periodic_hereditary(s.block).exact) for s in (sys_a, sys_b)
        ],
        "target": target.to_string(),
        "frequencies": [
            str(sturmian.mme_block_frequency(s, target, args.p)) for s in (sys_a, sys_b)
        ],
    }


def _transitive(args) -> dict:
    bset = _bset(args.bset)

    def blocks_of(n):
        return admissibility.admissible_words(bset, n)

    h = float(entropy.htop_bfree(bset).bits)
    word = sturmian.transitive_closure_point(blocks_of, h, args.n1, args.length)
    return {"word": json.loads(word.to_json())}


def _squeeze(args) -> dict:
    x = BinaryWord.from_string(args.x, args.offset)
    z = BinaryWord.from_string(args.z, args.offset)
    return {"word": json.loads(measures.squeeze(x, z).to_json())}


def _embed(args) -> dict:
    u = BinaryWord.from_string(args.u)
    z = BinaryWord.from_string(args.z, args.offset)
    return {"word": json.loads(measures.embed(u, z).to_json())}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS so the subparser does not overwrite a value given before it
    common.add_argument("--format", choices=["json", "csv"], default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path instead of stdout")
    top = argparse.ArgumentParser(prog="bfree", parents=[common])
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        # usage_error exits 2 with the subcommand's usage, for checks
        # that span several arguments
        p.set_defaults(handler=handler, usage_error=p.error)
        return p

    p = cmd("eta", _eta)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--window", type=_parse_window, required=True)

    p = cmd("phi", _phi)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--omega", type=_int_list, required=True, help="comma-separated residues")
    p.add_argument("--window", type=_parse_window, required=True)

    p = cmd("admissible", _admissible)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--offset", type=int, default=0)

    p = cmd("complexity", _complexity)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--n", type=int, required=True)

    p = cmd("entropy", _entropy)
    p.add_argument("--formula", choices=["bfree", "product", "generalized", "periodic"], required=True)
    p.add_argument("--bset", type=_int_list)
    p.add_argument("--p", type=_fraction)
    p.add_argument("--s", type=_int_list)
    p.add_argument("--a", type=_int_groups, help="semicolon-separated residue groups, e.g. 0,2;0,3,6")
    p.add_argument("--block")

    p = cmd("mirsky", _mirsky)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--ones", type=_int_list, default=())
    p.add_argument("--zeros", type=_int_list, default=())

    p = cmd("sample", _sample)
    p.add_argument("--measure", choices=["mirsky", "mme", "product", "generalized"], required=True)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--window", type=_parse_window, required=True)
    p.add_argument("--p", type=_fraction, default="1")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--s", type=_int_list)
    p.add_argument("--a", type=_int_groups)

    p = cmd("spectrum", _spectrum)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--offset", type=int, default=0)

    p = cmd("theta", _theta)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--offset", type=int, default=0)

    p = cmd("include", _include, aliases=["witness"])
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--other", type=_int_list, required=True)

    p = cmd("construct-admissible", _construct_admissible)
    p.add_argument("--small", type=_int_list, default=())
    p.add_argument("--bprime", type=int, required=True)

    p = cmd("density", _density)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--horizon", type=int, required=True)

    p = cmd("sturmian", _sturmian)
    p.add_argument("--alpha", type=_alpha, default="golden",
                   help='"golden" or a rational/decimal in (0,1)')
    p.add_argument("--y", type=_fraction, default="0")
    p.add_argument("--interval", type=_interval, default="0:1/2")
    p.add_argument("--window", type=_parse_window, required=True)

    p = cmd("counterexample", _counterexample)
    p.add_argument("which", choices=["two-mme"])
    p.add_argument("--p", type=_fraction, default="1/2")

    p = cmd("transitive", _transitive)
    p.add_argument("--bset", type=_int_list, required=True)
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--length", type=int, required=True)

    p = cmd("squeeze", _squeeze)
    p.add_argument("--x", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--offset", type=int, default=0)

    p = cmd("embed", _embed)
    p.add_argument("--u", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--offset", type=int, default=0)

    return top


def _to_csv(obj: dict) -> str:
    if "words" in obj:
        lines = ["index,bits"] + [f"{i},{w}" for i, w in enumerate(obj["words"])]
        return "\n".join(lines) + "\n"
    if "p_n" in obj:
        lines = ["n,p_n,h_n"] + [
            f"{i + 1},{p},{h}" for i, (p, h) in enumerate(zip(obj["p_n"], obj["h_n"]))
        ]
        return "\n".join(lines) + "\n"
    lines = ["key,value"] + [f"{k},{json.dumps(v)}" for k, v in obj.items()]
    return "\n".join(lines) + "\n"


def _error(name: str, message: str) -> int:
    print(json.dumps({"schema": SCHEMA, "error": name, "message": message}), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except BFreeError as exc:
        return _error(type(exc).__name__, str(exc))
    except (ValueError, KeyError) as exc:
        return _error("ValueError", str(exc))
    result = {"schema": SCHEMA, **result}
    fmt = getattr(args, "format", None) or "json"
    out_path = getattr(args, "out", None)
    text = _to_csv(result) if fmt == "csv" else json.dumps(result)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            return _error(type(exc).__name__, str(exc))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
