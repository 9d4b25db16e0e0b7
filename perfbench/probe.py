"""Set-up probe: a fresh interpreter brought to the point of the first run call.

Usage: python3 probe.py ROOT CONFIGS.json

Imports the runner (and with it every ergolab module), then parses and
validates each config text, which builds its system, observable and ladder.
Prints one line when ready; the caller times interpreter start to that line.
"""

import json
import os
import sys


def main(root, configs_path):
    sys.path.insert(0, os.path.join(root, "src"))
    from ergolab.config import parse_config_text
    from ergolab.runner import run  # noqa: F401  (the import is part of set-up)

    with open(configs_path, encoding="utf-8") as fh:
        configs = json.load(fh)
    for _, text in configs:
        parse_config_text(text)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
