#!/usr/bin/env python3
"""Run the Python blocks of README.md's library quick start and check their comments.

A line ``name = ...  # 0.0946`` must give a value that rounds to the number at the
digits shown; a comment that holds ``==``, such as ``# obs.statistic == "s_min"``,
must evaluate to True.  The script imports whichever ``steelrank`` Python finds and
prints its location, so run against an installed wheel it checks the wheel.
"""
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"^(\w+) = .*#\s*(-?\d+\.(\d+))\b")
CLAIM = re.compile(r"#\s*(.*==.*)$")


def quick_start_blocks(text: str) -> list[str]:
    """The fenced Python blocks between the quick-start heading and the next heading."""
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def main() -> dict:
    import steelrank

    print(f"steelrank from {steelrank.__file__}")
    blocks = quick_start_blocks(README.read_text(encoding="utf-8"))
    if not blocks:
        sys.exit("no Python blocks under the README's library quick start")
    namespace: dict = {}
    failures = []
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            if match := NUMBER.match(line):
                name, shown, digits = match.groups()
                got = namespace[name]
                ok = round(got, len(digits)) == float(shown)
                print(f"{name} = {got} (README: {shown})")
            elif match := CLAIM.search(line):
                ok = eval(match.group(1), namespace)
                print(f"{match.group(1)}: {ok}")
            else:
                continue
            if not ok:
                failures.append(line.strip())
    if failures:
        sys.exit("README values that do not hold:\n" + "\n".join(failures))
    return namespace


if __name__ == "__main__":
    main()
