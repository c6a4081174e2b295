"""Goldens of the command-line surface: the JSON `inputs` block of every
command (defaults included, in flag order), the help texts at COLUMNS=80,
and one argparse usage error. test_cli.py checks the CLI against them."""

# Each command is run with --format json in a directory holding g.txt and
# h.txt. `check` names its flags out of order: inputs keeps flag order.
INPUT_ARGV = {
    "boundary": ["boundary", "--graph", "g.txt", "--x", "b"],
    "gx": ["gx", "--graph", "g.txt", "--x", "a"],
    "check": ["check", "--set", "a d", "--x", "b", "-g", "g.txt"],
    "closure": ["closure", "--graph", "g.txt", "--set", "a d"],
    "product": ["product", "--kind", "cartesian", "--g", "g.txt", "--h", "h.txt"],
    "product-verify": ["product-verify", "--kind", "strong", "--g", "g.txt", "--h", "h.txt"],
    "geodetic-heuristic": ["geodetic-heuristic", "--graph", "g.txt"],
    "oracle-gx": ["oracle-gx", "--graph", "g.txt", "--x", "b"],
    "oracle-geodetic": ["oracle-geodetic", "--graph", "g.txt"],
    "verify-theorems": ["verify-theorems"],
    "find-counterexample": ["find-counterexample"],
}

# the text of each document from its "inputs" key up to "result"
INPUTS = {
    "boundary": """\
  "inputs": {
    "graph": "g.txt",
    "x": "b"
  },
""",
    "gx": """\
  "inputs": {
    "graph": "g.txt",
    "x": "a"
  },
""",
    "check": """\
  "inputs": {
    "graph": "g.txt",
    "x": "b",
    "set": "a d"
  },
""",
    "closure": """\
  "inputs": {
    "graph": "g.txt",
    "set": "a d"
  },
""",
    "product": """\
  "inputs": {
    "kind": "cartesian",
    "g": "g.txt",
    "h": "h.txt",
    "emit": false
  },
""",
    "product-verify": """\
  "inputs": {
    "kind": "strong",
    "g": "g.txt",
    "h": "h.txt",
    "base": null
  },
""",
    "geodetic-heuristic": """\
  "inputs": {
    "graph": "g.txt"
  },
""",
    "oracle-gx": """\
  "inputs": {
    "graph": "g.txt",
    "x": "b",
    "cap": 20
  },
""",
    "oracle-geodetic": """\
  "inputs": {
    "graph": "g.txt",
    "cap": 20
  },
""",
    "verify-theorems": """\
  "inputs": {
    "exhaustive_n": 5,
    "random": 0,
    "n": 9,
    "p": 0.35,
    "seed": 0
  },
""",
    "find-counterexample": """\
  "inputs": {
    "max_n": 8,
    "min_simplicial": 1
  },
""",
}

# geodom --help (key "") and geodom CMD --help
HELP = {
    "": """\
usage: geodom [-h]
              {boundary,gx,check,closure,product,product-verify,geodetic-heuristic,oracle-gx,oracle-geodetic,verify-theorems,find-counterexample}
              ...

Boundary vertices, x-geodomination, and geodetic sets on connected graphs,
with product constructions and brute-force verification oracles.

positional arguments:
  {boundary,gx,check,closure,product,product-verify,geodetic-heuristic,oracle-gx,oracle-geodetic,verify-theorems,find-counterexample}
    boundary            boundary vertices of a source vertex
    gx                  geodomination number of a source vertex
    check               test whether a set x-geodominates
    closure             geodetic closure of a set
    product             construct a graph product
    product-verify      check product boundary and gx bounds
    geodetic-heuristic  geodetic set from a minimum boundary
    oracle-gx           brute-force minimum x-geodominating sets
    oracle-geodetic     brute-force geodetic number
    verify-theorems     oracle-agreement sweep over graph corpora
    find-counterexample
                        simplicial set failing from every source

options:
  -h, --help            show this help message and exit
""",
    "boundary": """\
usage: geodom boundary [-h] [--format {plain,json}] --graph GRAPH --x X

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --graph GRAPH, -g GRAPH
                        edge-list file
  --x X                 source vertex label
""",
    "gx": """\
usage: geodom gx [-h] [--format {plain,json}] --graph GRAPH --x X

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --graph GRAPH, -g GRAPH
                        edge-list file
  --x X
""",
    "check": """\
usage: geodom check [-h] [--format {plain,json}] --graph GRAPH --x X --set SET

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --graph GRAPH, -g GRAPH
                        edge-list file
  --x X
  --set SET             vertex labels, e.g. "a b c"
""",
    "closure": """\
usage: geodom closure [-h] [--format {plain,json}] --graph GRAPH --set SET

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --graph GRAPH, -g GRAPH
                        edge-list file
  --set SET
""",
    "product": """\
usage: geodom product [-h] [--format {plain,json}] --kind
                      {cartesian,lexicographic,strong} --g G --h H [--emit]

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --kind {cartesian,lexicographic,strong}
  --g G                 first factor edge-list file
  --h H                 second factor edge-list file
  --emit                print the edge-list document
""",
    "product-verify": """\
usage: geodom product-verify [-h] [--format {plain,json}] --kind
                             {cartesian,lexicographic,strong} --g G --h H
                             [--base BASE]

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --kind {cartesian,lexicographic,strong}
  --g G                 first factor edge-list file
  --h H                 second factor edge-list file
  --base BASE           base vertex pair, e.g. "(a,1)"
""",
    "geodetic-heuristic": """\
usage: geodom geodetic-heuristic [-h] [--format {plain,json}] --graph GRAPH

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --graph GRAPH, -g GRAPH
                        edge-list file
""",
    "oracle-gx": """\
usage: geodom oracle-gx [-h] [--format {plain,json}] --graph GRAPH --x X
                        [--cap CAP]

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --graph GRAPH, -g GRAPH
                        edge-list file
  --x X
  --cap CAP
""",
    "oracle-geodetic": """\
usage: geodom oracle-geodetic [-h] [--format {plain,json}] --graph GRAPH
                              [--cap CAP]

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --graph GRAPH, -g GRAPH
                        edge-list file
  --cap CAP
""",
    "verify-theorems": """\
usage: geodom verify-theorems [-h] [--format {plain,json}]
                              [--exhaustive-n EXHAUSTIVE_N] [--random RANDOM]
                              [--n N] [--p P] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --exhaustive-n EXHAUSTIVE_N
  --random RANDOM       number of random graphs
  --n N                 random graph size
  --p P                 extra-edge probability
  --seed SEED
""",
    "find-counterexample": """\
usage: geodom find-counterexample [-h] [--format {plain,json}] [--max-n MAX_N]
                                  [--min-simplicial MIN_SIMPLICIAL]

options:
  -h, --help            show this help message and exit
  --format {plain,json}
  --max-n MAX_N         largest vertex count, 4 to 8
  --min-simplicial MIN_SIMPLICIAL
""",
}

USAGE_ERROR_ARGV = ["boundary", "--graph", "g.txt"]
USAGE_ERROR = (2, "", """\
usage: geodom boundary [-h] [--format {plain,json}] --graph GRAPH --x X
geodom boundary: error: the following arguments are required: --x
""")
