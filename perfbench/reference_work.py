"""Fixed reference work, timed before and after every measured command.

    python3 perfbench/reference_work.py

It does what a ``repro`` command does on a small scale, and the same
amount of it on every run: start an interpreter, import NumPy, run a
Python loop over a dictionary and floats, then NumPy accumulations and
sorts over a seeded array.  It touches nothing of the program under
test, so a change to the program cannot change its time; only the
host's speed can.  See ``README.md`` (Calibration) for how the
benchmark uses it.
"""

import numpy as np


def main() -> None:
    table: dict[int, int] = {}
    total = 0.0
    for i in range(500_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        total += (i % 97) * 0.5
    gaps = np.random.default_rng(12345).exponential(2.0, size=20_000)
    acc = 0.0
    for _ in range(100):
        acc += float(np.add.accumulate(gaps)[-1])
        acc += float(np.sort(gaps)[len(gaps) // 2])
    print(len(table), round(total), round(acc, 3))


if __name__ == "__main__":
    main()
