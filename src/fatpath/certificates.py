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
        vs = self.vertices
        if len(vs) != len(set(vs)):
            return False
        if any(not 0 <= v < g.n for v in vs):
            return False
        if self.kind == "cycle":
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
    weights: Optional[Sequence[int]] = None,
    target: int = 0,
) -> Certificate:
    """The certificate for seq, if it validates on g (and, with weights, has
    total weight >= target); CertificateError otherwise.  An explicit check,
    so it also holds under ``python -O``."""
    if seq is not None:
        cert = Certificate(kind, tuple(seq))
        if cert.validate(g, hamiltonian) and (
            weights is None or sum(weights[v] for v in seq) >= target
        ):
            return cert
    raise CertificateError(f"{kind} witness {seq} does not validate")
