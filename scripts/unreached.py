#!/usr/bin/env python3
"""List the protocol statements that no search executes.

Runs the searches of scripts/run_tables.py --quick (or of the one model
named on the command line) under sys.settrace, then prints each statement
inside a function of daemons.py, barrier.py and sockets.py that none of
them ran, as "module:line function: source", and a count. A statement ran
if any of its lines did; for a compound statement, any line of its header.

Usage:
    python3 scripts/unreached.py [--src DIR]
                                 [ALGORITHM [--size N] [--inserters K] [--blocking]]

DIR is the ringcheck source tree to trace (default: this checkout's src).
"""

import argparse
import ast
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MODULES = ("daemons.py", "barrier.py", "sockets.py")


def statements(path: Path) -> list[tuple[int, str, range]]:
    """(line, function, the lines any of which runs it) per statement of a function."""
    tree = ast.parse(path.read_text(), str(path))
    out = []

    def visit(body, where, in_function):
        for node in body:
            if in_function:
                inner = [b for f in ("body", "orelse", "finalbody", "handlers")
                         for b in getattr(node, f, ())]
                end = min((b.lineno for b in inner), default=node.end_lineno + 1) - 1
                out.append((node.lineno, where, range(node.lineno, max(node.lineno, end) + 1)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside = node.body
                if (inside and isinstance(inside[0], ast.Expr)
                        and isinstance(inside[0].value, ast.Constant)
                        and isinstance(inside[0].value.value, str)):
                    inside = inside[1:]  # a docstring runs nothing
                visit(inside, f"{where}.{node.name}" if where else node.name,
                      in_function or not isinstance(node, ast.ClassDef))
                continue
            for f in ("body", "orelse", "finalbody"):
                visit(getattr(node, f, ()), where, in_function)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, where, in_function)

    visit(tree.body, "", False)  # module and class bodies run at import
    return sorted(out)


def traced_lines(configs, files: set[str]) -> dict[str, set[int]]:
    """The lines of files that ran while every configuration was searched."""
    from ringcheck.explorer import explore
    from ringcheck.scenarios import build_scenario

    ran: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for cfg in configs:
            scenario = build_scenario(cfg)
            explore(scenario, scenario.default_properties())
    finally:
        sys.settrace(previous)
    return ran


def unreached(configs) -> list[tuple[str, int, str, str]]:
    """(module, line, function, source) of each statement no search ran."""
    import ringcheck

    src = Path(ringcheck.__file__).resolve().parent
    paths = {str(src / m): src / m for m in MODULES}
    ran = traced_lines(configs, set(paths))
    out = []
    for name, path in paths.items():
        text = path.read_text().splitlines()
        for line, function, lines in statements(path):
            if not ran[name].intersection(lines):
                out.append((path.name, line, function, text[line - 1].strip()))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algorithm", nargs="?")
    parser.add_argument("--size", type=int, default=2)
    parser.add_argument("--inserters", type=int, default=0)
    parser.add_argument("--blocking", action="store_true")
    parser.add_argument("--src", default=str(HERE.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from ringcheck.scenarios import ScenarioConfig  # from args.src, before run_tables runs

    if args.algorithm:
        configs = [ScenarioConfig(args.algorithm, size=args.size, inserters=args.inserters,
                                  blocking=args.blocking)]
    else:
        sys.path.insert(1, str(HERE))
        from run_tables import configs as sweep

        configs = sweep(quick=True)
    found = unreached(configs)
    for module, line, function, source in found:
        print(f"{module}:{line} {function}: {source}")
    print(f"{len(found)} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
