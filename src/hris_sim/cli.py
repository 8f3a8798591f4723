"""Command line front end.

Exit codes: 0 on success, 2 for configuration problems, 3 when the requested
estimation task is infeasible for the given setup.
"""

from __future__ import annotations

import argparse
import sys

from .config import (EXPERIMENTS, PRESETS, load_config, parse_config_tree,
                     parse_seed, parse_workers, preset_config)
from .errors import ConfigError, InfeasibleError
from .runner import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# The beampattern flags are the keys of its config sections, with their types
# and without defaults: a flag left out stays out of the config tree, and the
# config schema fills in its default.
_BEAM_SECTIONS = EXPERIMENTS["beampattern"].sections
_BEAM_HELP = {"n_h": "elements along x (required)", "n_v": "elements along y (required)",
              "steer_deg": "commanded signed elevation angle"}


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
                       help="worker process count, or 'auto' for the CPUs this process may use")
        p.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a YAML configuration")
    add_common(p_run)

    p_preset = sub.add_parser("preset", help="run a bundled experiment preset")
    p_preset.add_argument("name", choices=sorted(PRESETS),
                          help="preset identifier")
    add_common(p_preset)

    p_beam = sub.add_parser("beampattern", help="emit a steered pattern cut")
    for section in _BEAM_SECTIONS.values():
        for key, spec in section.kind.items():
            p_beam.add_argument("--" + key.replace("_", "-"), type=spec.kind,
                                help=_BEAM_HELP.get(key))
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
            tree = {"version": 1, "experiment": "beampattern"}
            for name, section in _BEAM_SECTIONS.items():
                given = {key: getattr(args, key) for key in section.kind
                         if getattr(args, key) is not None}
                if given:
                    tree[name] = given
            cfg = parse_config_tree(tree, source="command line")
        seed = None if args.seed is None else parse_seed(args.seed, "--seed")
        workers = None if args.workers is None else parse_workers(args.workers, "--workers")
        paths = run(cfg, out_dir=args.out, seed=seed, workers=workers)
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
