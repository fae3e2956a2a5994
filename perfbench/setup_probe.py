"""Set-up probe, run in a fresh interpreter by the benchmark.

Usage: python3 setup_probe.py SRC_DIR [PRESET_NAME | SCENARIO_FILE]...

Imports vortexcyl from SRC_DIR and builds and validates each config, which
is everything a ``vortexcyl simulate`` call does before its first step.
"""
import sys

sys.path.insert(0, sys.argv[1])
from vortexcyl import cli  # noqa: E402

for arg in sys.argv[2:]:
    if arg in cli.PRESETS:
        cli.config_from_dict(cli.PRESETS[arg])
    else:
        cli.load_config(arg)
