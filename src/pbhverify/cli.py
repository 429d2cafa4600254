"""Command-line runner: selects model, suite, tolerances and sample plan,
emits a JSON report plus a plain-text summary.

Exit status: 0 pass, 1 check failure, 2 configuration error, 3 model
certification error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .models import F_CATALOG, FlowTimeError, ModelError
from .suites import ConfigError, SuiteConfig, list_suites, run_suite

__all__ = ["main", "build_parser", "parse_config_file"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pbh-verify",
        description="numerical verification suites for pseudo-bihermitian and "
                    "generalized pseudo-Kahler structures on model manifolds")
    p.add_argument("--list-suites", action="store_true",
                   help="print the suite catalog and exit")
    p.add_argument("--config", help="flat key = value file; flags win")
    p.add_argument("--model", choices=("torus", "kodaira", "flag"),
                   help="model manifold (default torus); flag hosts only theorem4")
    p.add_argument("--suite")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", action="append", default=[],
                   metavar="CHECK=VALUE", help="loosen one check tolerance")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--f-expr", dest="f_expr",
                   help="named Hamiltonian: " + ", ".join(F_CATALOG))
    p.add_argument("--t", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--fa", type=int)
    p.add_argument("--fb", type=int)
    p.add_argument("--report", help="path for the JSON report")
    p.add_argument("--quiet", action="store_true",
                   help="print no summary; the exit status is unchanged")
    return p


def parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {raw.rstrip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


# every SuiteConfig field but ``tol`` (parsed as CHECK=VALUE overrides),
# with the type of its default
_FIELD_TYPES = {f.name: type(f.default) for f in fields(SuiteConfig)
                if f.name != "tol"}


def _assemble_config(args) -> SuiteConfig:
    values = {}
    if args.config:
        raw = parse_config_file(args.config)
        tol_text = raw.pop("tol", "")
        values.update(raw)
        tols = [t for t in tol_text.split(",") if t]
    else:
        tols = []
    for key in _FIELD_TYPES:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    tols.extend(args.tol)
    if "seed" not in values and os.environ.get("PBH_SEED"):
        values["seed"] = os.environ["PBH_SEED"]

    cfg = SuiteConfig()
    for key, value in values.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            setattr(cfg, key, _FIELD_TYPES[key](value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    overrides = {}
    for item in tols:
        if "=" not in item:
            raise ConfigError(f"malformed tolerance override {item!r}")
        name, value = item.split("=", 1)
        try:
            overrides[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    cfg.tol = overrides
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_suites:
        print(list_suites(), end="")
        return 0
    try:
        cfg = _assemble_config(args)
        cfg.validate()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_suite(cfg)
    except (ConfigError, FlowTimeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model certification error: {exc}", file=sys.stderr)
        return 3
    if cfg.report:
        with open(cfg.report, "w") as fh:
            fh.write(report.to_json())
    if not args.quiet:
        print(report.summary(), end="")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
