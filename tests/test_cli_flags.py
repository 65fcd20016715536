"""Golden flag set of the ``repro`` CLI.

For every subcommand, the option strings with their choices, defaults,
arity and value type, read from ``build_parser()``.  Refactoring how the
parser is assembled (shared argument groups) must leave this table
exactly as it is: a changed default or a dropped choice is a
user-visible break.
"""

import argparse

from repro.cli import build_parser

DATASETS = ("imgnet-sim", "nus-wide-sim", "sogou-sim", "tiny")
METHODS = (
    "NO-CACHE", "EXACT", "C-VA", "HC-W", "HC-D", "HC-V", "HC-O",
    "iHC-W", "iHC-D", "iHC-O", "mHC-R",
)
POINT_INDEXES = (
    "c2lsh", "e2lsh", "multiprobe", "sklsh", "vafile", "vaplus", "linear",
)
ALL_INDEXES = POINT_INDEXES + ("idistance", "vptree", "mtree")

# Each entry: option -> (choices, default, nargs, value type name).
FLAG = (None, False, 0, None)
METRICS = {
    "--metrics": FLAG,
    "--metrics-out": (None, None, None, None),
    "--metrics-format": (("table", "prom"), "table", None, None),
}
SPEC = {
    "--dataset": (DATASETS, "tiny", None, None),
    "--scale": (None, 1.0, None, "float"),
    "--seed": (None, 0, None, "int"),
    "--k": (None, 10, None, "int"),
    "--tau": (None, 8, None, "int"),
    "--cache-kb": (None, 0, None, "int"),
}
COMMON = {
    **SPEC,
    **METRICS,
    "--index": (POINT_INDEXES, "c2lsh", None, None),
    "--shards": (None, 0, None, "int"),
    "--executor": (("serial", "thread", "process"), "serial", None, None),
    "--partition": (
        ("contiguous", "round_robin", "cluster"), "contiguous", None, None
    ),
    "--faults": (None, None, None, None),
    "--deadline-ms": (None, 0.0, None, "float"),
    "--degraded": FLAG,
    "--retries": (None, 2, None, "int"),
}
METHOD = {"--method": (METHODS, "HC-O", None, None)}

GOLDEN = {
    "info": {},
    "experiment": {
        **COMMON,
        **METHOD,
        "--adapt": FLAG,
        "--adapt-every": (None, 100, None, "int"),
        "--adapt-model": (("window", "sketch"), "window", None, None),
    },
    "compare": {
        **COMMON,
        "--methods": (
            METHODS, ["NO-CACHE", "EXACT", "HC-D", "HC-O"], "+", None
        ),
    },
    "tune": COMMON,
    "serve": {
        **COMMON,
        **METHOD,
        "--rate": (None, 0.0, None, "float"),
        "--requests": (None, 0, None, "int"),
        "--max-batch": (None, 32, None, "int"),
        "--max-wait-us": (None, 2000.0, None, "float"),
        "--queue-depth": (None, 256, None, "int"),
        "--replicas": (None, 0, None, "int"),
        "--stall-budget-ms": (None, 1000.0, None, "float"),
        "--hedge-delay-ms": (None, 0.0, None, "float"),
        "--replica-crash-batches": (None, "", None, None),
        "--churn-rate": (None, 0.0, None, "float"),
    },
    "mutate": {
        **COMMON,
        **METHOD,
        "--insert": (None, 0, None, "int"),
        "--delete": (None, "", None, None),
        "--filter": (None, "", None, None),
        "--check": FLAG,
    },
    "snapshot build": {
        **SPEC,
        **METRICS,
        **METHOD,
        "out": (None, None, None, None),
        "--index": (ALL_INDEXES, "c2lsh", None, None),
    },
    "snapshot inspect": {
        "path": (None, None, None, None),
        "--json": FLAG,
    },
    "snapshot serve": {
        **METRICS,
        "path": (None, None, None, None),
        "--k": (None, 0, None, "int"),
        "--limit": (None, 0, None, "int"),
        "--no-mmap": FLAG,
        "--adapt-every": (None, 0, None, "int"),
        "--deadline-ms": (None, 0.0, None, "float"),
    },
    "snapshot verify": {
        "path": (None, None, None, None),
        "--k": (None, 0, None, "int"),
        "--limit": (None, 0, None, "int"),
    },
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _flag_table(parser: argparse.ArgumentParser) -> dict:
    table = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        key = "/".join(action.option_strings) or action.dest
        choices = tuple(action.choices) if action.choices is not None else None
        type_name = getattr(action.type, "__name__", None)
        table[key] = (choices, action.default, action.nargs, type_name)
    return table


def _cli_table() -> dict:
    table = {}
    for name, sub in _subparsers(build_parser()).items():
        if name == "snapshot":
            for sub_name, leaf in _subparsers(sub).items():
                table[f"snapshot {sub_name}"] = _flag_table(leaf)
        else:
            table[name] = _flag_table(sub)
    return table


def test_subcommands_match_golden():
    assert sorted(_cli_table()) == sorted(GOLDEN)


def test_flags_match_golden():
    table = _cli_table()
    for command, expected in GOLDEN.items():
        assert table[command] == expected, command
