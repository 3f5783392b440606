"""Certificate.validate against a plain reference, on random vertex
sequences that hit every way a witness can be wrong."""

import os
import random
import subprocess
import sys

import fatpath
from fatpath.certificates import Certificate

from helpers import random_graph


def reference_validate(cert, g, hamiltonian=False):
    """The check spelled out one condition at a time."""
    vs = cert.vertices
    if len(vs) != len(set(vs)):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    if cert.kind == "cycle":
        if len(vs) < 3:
            return False
        if not g.has_edge(vs[-1], vs[0]):
            return False
    else:
        if len(vs) < 1:
            return False
    if any(not g.has_edge(u, v) for u, v in zip(vs, vs[1:])):
        return False
    if hamiltonian and len(vs) != g.n:
        return False
    return True


def walk(rng, g, length):
    """A walk of up to length vertices along g's edges, stopping early at a
    vertex whose neighbours are all on it; often a valid path."""
    v = rng.randrange(g.n)
    seq = [v]
    while len(seq) < length:
        free = sorted(set(g.neighbors(v)) - set(seq))
        if not free:
            break
        v = rng.choice(free)
        seq.append(v)
    return seq


def sequences(rng, g):
    """Random vertex sequences on g: walks, walks with one vertex changed,
    repeated or dropped, ids out of range (the last one among them, where a
    cycle's closing edge starts), and the short cases."""
    yield []
    for length in (1, 2, 3):
        yield [rng.randrange(g.n) for _ in range(length)]
    for _ in range(12):
        seq = walk(rng, g, rng.randint(1, g.n))
        yield seq
        yield seq[::-1]
        i = rng.randrange(len(seq))
        yield seq[:i] + [rng.choice((-1, -g.n, g.n, g.n + 3))] + seq[i + 1:]
        yield seq[:-1] + [rng.choice((-1, -g.n, g.n, g.n + 3))]
        yield seq[:i] + [rng.randrange(g.n)] + seq[i + 1:]
        yield seq + [seq[i]]
        yield seq[:i] + seq[i + 1:]
    yield list(range(g.n))
    yield rng.sample(range(g.n), g.n)


def test_validate_matches_the_reference():
    # small graphs, then graphs of 60-130 vertices, whose neighbour masks
    # are wider than a machine word
    rng = random.Random(9900)
    cases = [random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.9), 9900 + case)
             for case in range(150)]
    cases += [random_graph(rng.randint(60, 130), rng.uniform(0.02, 0.1), 9750 + case)
              for case in range(30)]
    counts = {True: 0, False: 0}
    for case, g in enumerate(cases):
        for seq in sequences(rng, g):
            for kind in ("path", "cycle"):
                cert = Certificate(kind, tuple(seq))
                for hamiltonian in (False, True):
                    got = cert.validate(g, hamiltonian)
                    assert got == reference_validate(cert, g, hamiltonian), (
                        case, kind, seq, hamiltonian)
                    counts[got] += 1
    # both answers are well represented
    assert min(counts.values()) > 1000, counts


def test_bad_witnesses_raise_under_python_O():
    # every way a witness can fail raises, also where python -O strips asserts
    code = (
        "from fatpath.certificates import CertificateError, checked\n"
        "from fatpath.graphs import Graph\n"
        "c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])\n"
        "bad = [\n"
        "    ('path', [], False), ('cycle', [], False),\n"
        "    ('path', [0, -1], False), ('path', [4, 5], False),\n"
        "    ('path', [0, 1, 0], False), ('cycle', [0], False),\n"
        "    ('cycle', [0, 1], False), ('path', [0, 2], False),\n"
        "    ('cycle', [0, 1, 2], False), ('path', [0, 1, 2], True),\n"
        "    ('cycle', [0, 1, 2, 3], True),\n"
        "]\n"
        "for kind, seq, ham in bad:\n"
        "    try:\n"
        "        checked(c5, kind, seq, hamiltonian=ham)\n"
        "    except CertificateError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
        "checked(c5, 'cycle', [0, 1, 2, 3, 4], hamiltonian=True)\n"
    )
    src = os.path.dirname(os.path.dirname(fatpath.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert done.returncode == 0
