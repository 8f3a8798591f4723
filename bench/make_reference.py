"""Write the reference CSV of every workload at the default seed.

    python3 bench/make_reference.py

Run only when a change of results is intended and explained; the gate
compares every run at the default seed against these files.
"""

import os
import shutil
import sys
import tempfile

import workloads

os.environ.update(workloads.BLAS_THREADS)  # same policy as measured processes
sys.path.insert(0, str(workloads.SRC))

from hris_sim import config, runner  # noqa: E402


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        tree = workloads.config_tree(config.PRESETS, name, workloads.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=workloads.ROOT) as out:
            paths = runner.run(config.parse_config_tree(tree), out_dir=out)
            shutil.copyfile(paths["csv"], workloads.reference_csv(name))
        print("wrote", workloads.reference_csv(name))


if __name__ == "__main__":
    main()
