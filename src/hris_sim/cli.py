"""Command line front end.

Exit codes: 0 on success, 2 for configuration problems, 3 when the requested
estimation task is infeasible for the given setup.
"""

from __future__ import annotations

import argparse
import sys

from .config import (DEFAULT_SPACING_M, DEFAULT_WAVELENGTH_M, PRESETS,
                     load_config, parse_config_tree, parse_workers, preset_config)
from .errors import ConfigError, InfeasibleError
from .runner import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hris-sim",
        description="Link-level simulator for hybrid reflecting-and-sensing surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured random seed")
        p.add_argument("--workers", default=None,
                       type=lambda raw: int(raw) if raw.isdecimal() else raw,
                       help="worker process count or 'auto'")
        p.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a YAML configuration")
    add_common(p_run)

    p_preset = sub.add_parser("preset", help="run a bundled experiment preset")
    p_preset.add_argument("name", choices=sorted(PRESETS),
                          help="preset identifier")
    add_common(p_preset)

    p_beam = sub.add_parser("beampattern", help="emit a steered pattern cut")
    p_beam.add_argument("--n-h", type=int, required=True, help="elements along x")
    p_beam.add_argument("--n-v", type=int, required=True, help="elements along y")
    p_beam.add_argument("--spacing-m", type=float, default=DEFAULT_SPACING_M)
    p_beam.add_argument("--wavelength-m", type=float, default=DEFAULT_WAVELENGTH_M)
    p_beam.add_argument("--steer-deg", type=float, default=0.0,
                        help="commanded signed elevation angle")
    p_beam.add_argument("--azimuth-deg", type=float, default=0.0)
    p_beam.add_argument("--n-points", type=int, default=1441)
    p_beam.add_argument("--span-deg", type=float, default=90.0)
    add_common(p_beam)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
        elif args.command == "preset":
            cfg = preset_config(args.name)
        else:
            tree = {
                "version": 1,
                "experiment": "beampattern",
                "array": {"n_h": args.n_h, "n_v": args.n_v,
                          "spacing_m": args.spacing_m,
                          "wavelength_m": args.wavelength_m},
                "beampattern": {"steer_deg": args.steer_deg,
                                "azimuth_deg": args.azimuth_deg,
                                "n_points": args.n_points,
                                "span_deg": args.span_deg},
            }
            cfg = parse_config_tree(tree, source="command line")
        workers = None if args.workers is None else parse_workers(args.workers, "--workers")
        paths = run(cfg, out_dir=args.out, seed=args.seed, workers=workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"wrote {paths['csv']}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
