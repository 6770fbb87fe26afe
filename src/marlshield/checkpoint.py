"""Versioned binary snapshots of a trainer's networks.

Layout, all integers little-endian uint32 unless noted:

    magic "MSHLDNN\\0" (8 bytes) | version | n_agents
    config blob: length + UTF-8 JSON (the resolved run config and seed)
    per agent, for each of actor/critic: head code (0 linear, 1 tanh),
        head_scale (float64), n_dims, dims...
    tensors: float64 little-endian, declaration order, per agent:
        actor W0 b0 W1 b1 ..., critic ..., target actor ..., target critic ...

Loading validates architecture dims against the requesting trainer and
reports expected/found on mismatch.
"""

from __future__ import annotations

import struct

import numpy as np

from .nets import Mlp

MAGIC = b"MSHLDNN\x00"
VERSION = 1

_HEADS = {"linear": 0, "tanh": 1}
_HEADS_BACK = {v: k for k, v in _HEADS.items()}


class CheckpointError(RuntimeError):
    pass


class CheckpointMismatchError(CheckpointError):
    pass


def _pack_net_header(net: Mlp) -> bytes:
    parts = [struct.pack("<I", _HEADS[net.head]), struct.pack("<d", net.head_scale)]
    parts.append(struct.pack("<I", len(net.dims)))
    parts += [struct.pack("<I", d) for d in net.dims]
    return b"".join(parts)


def _net_tensors(net: Mlp) -> bytes:
    return b"".join(p.astype("<f8").tobytes() for p in net.parameters())


def save_checkpoint(path, trainer, config_json: str) -> None:
    """Write online and target networks of every agent."""
    blob = config_json.encode("utf-8")
    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(trainer.actors))]
    out.append(struct.pack("<I", len(blob)))
    out.append(blob)
    for actor, critic in zip(trainer.actors, trainer.critics):
        out.append(_pack_net_header(actor))
        out.append(_pack_net_header(critic))
    for i in range(len(trainer.actors)):
        out.append(_net_tensors(trainer.actors[i]))
        out.append(_net_tensors(trainer.critics[i]))
        out.append(_net_tensors(trainer.target_actors[i]))
        out.append(_net_tensors(trainer.target_critics[i]))
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

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]


def _read_net_header(r: _Reader):
    head = _HEADS_BACK.get(r.u32())
    if head is None:
        raise CheckpointError("unknown head code")
    scale = r.f64()
    dims = tuple(r.u32() for _ in range(r.u32()))
    return head, scale, dims


def _read_net(r: _Reader, head, scale, dims) -> Mlp:
    net = Mlp(dims, head=head, head_scale=scale)
    for p in net.parameters():
        raw = r.take(p.size * 8)
        p[...] = np.frombuffer(raw, dtype="<f8").reshape(p.shape)
    return net


def load_checkpoint(path):
    """Returns (config_json, per-agent dicts of actor/critic/target networks)."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(8) != MAGIC:
        raise CheckpointError(f"{path} is not a network checkpoint (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {VERSION}")
    n_agents = r.u32()
    config_json = r.take(r.u32()).decode("utf-8")
    headers = [(_read_net_header(r), _read_net_header(r)) for _ in range(n_agents)]
    agents = []
    for (a_head, a_scale, a_dims), (c_head, c_scale, c_dims) in headers:
        agents.append(
            {
                "actor": _read_net(r, a_head, a_scale, a_dims),
                "critic": _read_net(r, c_head, c_scale, c_dims),
                "target_actor": _read_net(r, a_head, a_scale, a_dims),
                "target_critic": _read_net(r, c_head, c_scale, c_dims),
            }
        )
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
        for role, own in (
            ("actor", trainer.actors[i]),
            ("critic", trainer.critics[i]),
            ("target_actor", trainer.target_actors[i]),
            ("target_critic", trainer.target_critics[i]),
        ):
            loaded = nets[role]
            if own.dims != loaded.dims:
                raise CheckpointMismatchError(
                    f"agent {i} {role} dims: expected {own.dims}, found {loaded.dims}"
                )
            pairs.append((own, loaded))
    for own, loaded in pairs:
        np.copyto(own.flat, loaded.flat)
        own.head, own.head_scale = loaded.head, loaded.head_scale
