"""Versioned binary snapshots of a trainer's networks.

Layout, all integers little-endian uint32 unless noted:

    magic "MSHLDNN\\0" (8 bytes) | version | n_agents
    config blob: length + UTF-8 JSON (the resolved run config and seed)
    per agent, for each of actor/critic: head code (0 linear, 1 tanh),
        head_scale (float64), n_dims, dims...
    tensors: float64 little-endian, declaration order, per agent:
        actor W0 b0 W1 b1 ..., critic ..., target actor ..., target critic ...
        (each net's `flat` vector)

Loading checks each header (at least two dims, each >= 1, a finite
head_scale > 0) and that the tensors fill the rest of the file exactly
before it builds any net; attaching validates architecture dims against
the requesting trainer and reports expected/found on mismatch.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .nets import Mlp, flat_size

MAGIC = b"MSHLDNN\x00"
VERSION = 1

_HEADS = {"linear": 0, "tanh": 1}
_HEADS_BACK = {v: k for k, v in _HEADS.items()}


class CheckpointError(RuntimeError):
    pass


class CheckpointMismatchError(CheckpointError):
    pass


# The four networks of each agent, in file order. A trainer holds role r's
# nets in its list attribute r + "s"; a target net shares its online net's header.
ROLES = ("actor", "critic", "target_actor", "target_critic")


def _nets(trainer, i: int) -> list[Mlp]:
    return [getattr(trainer, role + "s")[i] for role in ROLES]


def save_checkpoint(path, trainer, config_json: str) -> None:
    """Write online and target networks of every agent."""
    blob = config_json.encode("utf-8")
    n_agents = len(trainer.actors)
    out = [MAGIC, struct.pack("<3I", VERSION, n_agents, len(blob)), blob]
    for i in range(n_agents):
        for net in _nets(trainer, i)[:2]:
            out.append(struct.pack(f"<Id{len(net.dims) + 1}I", _HEADS[net.head], net.head_scale,
                                   len(net.dims), *net.dims))
    for i in range(n_agents):
        out += [net.flat.astype("<f8").tobytes() for net in _nets(trainer, i)]
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("checkpoint truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _read_net_header(r: _Reader) -> dict:
    head = _HEADS_BACK.get(r.u32())
    if head is None:
        raise CheckpointError("unknown head code")
    scale = struct.unpack("<d", r.take(8))[0]
    dims = tuple(r.u32() for _ in range(r.u32()))
    if not (math.isfinite(scale) and scale > 0):
        raise CheckpointError(f"net head_scale must be finite and > 0, found {scale!r}")
    if len(dims) < 2 or min(dims) < 1:
        raise CheckpointError(f"net dims must be at least two sizes, each >= 1, found {dims}")
    return {"head": head, "head_scale": scale, "dims": dims}


def load_checkpoint(path):
    """Returns (config_json, per-agent dicts of actor/critic/target networks)."""
    try:
        with open(path, "rb") as fh:
            r = _Reader(fh.read())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    if r.take(8) != MAGIC:
        raise CheckpointError(f"{path} is not a network checkpoint (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {VERSION}")
    n_agents = r.u32()
    try:
        config_json = r.take(r.u32()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: embedded config is not UTF-8 ({exc.reason})") from exc
    headers = [{role: _read_net_header(r) for role in ROLES[:2]} for _ in range(n_agents)]
    declared = 8 * sum(
        flat_size(header[role.removeprefix("target_")]["dims"]) for header in headers for role in ROLES
    )
    if len(r.data) - r.pos != declared:
        raise CheckpointError(
            f"checkpoint holds {len(r.data) - r.pos} tensor bytes, its headers declare {declared}"
        )
    agents = []
    for header in headers:
        nets = {role: Mlp(**header[role.removeprefix("target_")]) for role in ROLES}
        for net in nets.values():
            net.flat[:] = np.frombuffer(r.take(net.flat.size * 8), dtype="<f8")
        agents.append(nets)
    return config_json, agents


def attach_networks(trainer, agents) -> None:
    """Copy loaded networks into a trainer's own nets, validating architecture dims.

    Every dim is checked before any value moves. Values land in the
    trainer's existing `flat` vectors, so its optimizers keep acting on the
    nets that hold them; the head settings come with the values, as the
    checkpoint's policy was trained with them.
    """
    if len(agents) != len(trainer.actors):
        raise CheckpointMismatchError(
            f"expected {len(trainer.actors)} agents, found {len(agents)}"
        )
    pairs = []
    for i, nets in enumerate(agents):
        for role, own in zip(ROLES, _nets(trainer, i)):
            loaded = nets[role]
            if own.dims != loaded.dims:
                raise CheckpointMismatchError(
                    f"agent {i} {role} dims: expected {own.dims}, found {loaded.dims}"
                )
            pairs.append((own, loaded))
    for own, loaded in pairs:
        np.copyto(own.flat, loaded.flat)
        own.head, own.head_scale = loaded.head, loaded.head_scale
