"""Path and cycle certificates.  Every solver output is one of these."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph

__all__ = ["Certificate", "CertificateError", "checked"]


@dataclass(frozen=True)
class Certificate:
    """A vertex sequence claimed to be a simple path or cycle."""

    kind: str  # "path" | "cycle"
    vertices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("path", "cycle"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def validate(self, g: Graph, hamiltonian: bool = False) -> bool:
        """True when the vertices are a simple path of g, or for a cycle a
        simple cycle of at least 3 vertices whose last vertex is adjacent
        to its first; with hamiltonian, one through all g.n vertices.  One
        pass over the sequence and g's neighbour bitmasks: each vertex must
        be an id of g, absent from the mask of those seen, and a bit of its
        predecessor's mask.  The closing edge is read last, once every id
        is known to be in range."""
        vs = self.vertices
        n = g.n
        if hamiltonian and len(vs) != n or len(vs) < (3 if self.kind == "cycle" else 1):
            return False
        masks = g._masks  # the graph's own, only read
        seen = 0
        nbrs = -1  # any vertex may come first
        for v in vs:
            if not 0 <= v < n:
                return False
            bit = 1 << v
            if seen & bit or not nbrs & bit:
                return False
            seen |= bit
            nbrs = masks[v]
        return self.kind == "path" or nbrs >> vs[0] & 1 == 1

    def serialize(self) -> str:
        return f"{self.kind}: " + " ".join(str(v) for v in self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


class CertificateError(RuntimeError):
    """A solver step produced a witness that does not validate: a bug in the
    solver, never a verdict."""


def checked(
    g: Graph,
    kind: str,
    seq: Optional[Sequence[int]],
    hamiltonian: bool = False,
    target: int = 0,
) -> Certificate:
    """The certificate for seq, if it validates on g and has at least target
    vertices; CertificateError otherwise.  An explicit check, so it also
    holds under ``python -O``."""
    if seq is not None:
        cert = Certificate(kind, tuple(seq))
        if cert.validate(g, hamiltonian) and len(cert) >= target:
            return cert
    raise CertificateError(f"{kind} witness {seq} does not validate")
