"""One timed benchmark set-up: import orienteer, generate the instances
listed in <specs file> and write them into <out dir>, which must be empty.

Usage: python3 perfbench/setup_child.py <specs file> <out dir> <orienteer src dir>
Prints {"setup_s": seconds} on its last line.  The benchmark runs it in a
fresh interpreter several times, because an import is only paid once per
process, and into a fresh directory each time, because rewriting existing
files costs more than writing new ones on some file systems.
"""

import json
import sys
import time
from pathlib import Path


def main(specs_file: Path, out: Path, src: str):
    specs = json.loads(specs_file.read_text())
    start = time.perf_counter()
    sys.path.insert(0, src)
    from orienteer.generate import generate
    from orienteer.io import dumps

    for i, spec in enumerate(specs):
        (out / f"inst-{i}.json").write_text(dumps(generate(**spec)))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3])
