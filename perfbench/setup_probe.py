"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <src-dir> <digits>

The set-up is ``import glaisher`` (with its CLI module) and, when
``digits`` is not 0, ``make_context(digits)`` plus the first
``ctx.constants``.  Interpreter start-up is not part of it.  Prints the
set-up's wall seconds and this process's speed factor (``speed.py``),
sampled right after it.
"""

import statistics
import sys
import time

SPEED_SAMPLES = 20


def main() -> None:
    src, digits = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import glaisher
    import glaisher.cli  # noqa: F401

    if digits:
        glaisher.make_context(digits).constants
    seconds = time.perf_counter() - start

    import speed

    factor = statistics.mean(speed.sample() for _ in range(SPEED_SAMPLES)) / speed.REFERENCE_S
    print(repr(seconds), repr(factor))


if __name__ == "__main__":
    main()
