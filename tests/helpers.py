"""Small builders shared by the test modules."""

import json
import re
from contextlib import contextmanager

import numpy as np

from graphfuse import tensor as T
from graphfuse.data import Batch
from graphfuse.rng import RngState
from graphfuse.tensor import IGNORE_INDEX


@contextmanager
def attention_maps():
    """Record every attention map the block computes: yields the list that
    ``T.attention`` and ``T.graph_attention`` append their weights to."""
    maps = []
    token = T._attention_maps.set(maps)
    try:
        yield maps
    finally:
        T._attention_maps.reset(token)


def total(t):
    """The scalar sum of the tensor ``t``, as a graph node: the loss of the
    gradient tests. Its backward hands every entry the incoming gradient."""
    return T._make(t.data.sum(), (t,),
                   lambda g: (np.broadcast_to(g, t.data.shape).copy(),))


def length_mask(lengths, n):
    """The (B, n) boolean mask of ``lengths`` (True at each row's first
    lengths[b] entries, the real tokens): the key mask the oracles take."""
    return np.arange(n) < np.asarray(lengths)[:, None]


def toy_batch(lengths, vocab_size, n_labels=3, seed=0, n_max=None,
              reserve_low_ids=2):
    """Random padded batch with the given true lengths."""
    rng = RngState(seed)
    n_max = n_max or max(lengths)
    B = len(lengths)
    token_ids = np.zeros((B, n_max), dtype=np.int64)
    label_ids = np.full((B, n_max), IGNORE_INDEX, dtype=np.int64)
    for b, n in enumerate(lengths):
        token_ids[b, :n] = rng.integers(reserve_low_ids, vocab_size, (n,))
        label_ids[b, :n] = rng.integers(0, n_labels, (n,))
    return Batch(token_ids=token_ids, label_ids=label_ids, lengths=list(lengths))


def assert_views_of_flat(model):
    """Every parameter's .data and .grad are views into the model's two flat
    buffers, at the same offset in each, and together they tile both in
    ``flat.layout`` order."""
    flat = model.flat
    params = model.parameters()
    assert sorted(name for name, _ in flat.layout) == sorted(params)
    offset = 0
    for name, shape in flat.layout:
        p = params[name]
        assert p.data.base is flat.data and p.grad.base is flat.grad
        assert list(p.data.shape) == shape, name
        start = p.data.ctypes.data - flat.data.ctypes.data
        assert p.grad.ctypes.data - flat.grad.ctypes.data == start
        assert start == offset * flat.data.itemsize, name
        offset += p.data.size
    assert offset == flat.data.size == flat.grad.size


def _version_2_name(name):
    """A parameter's name in a format version 2 checkpoint, which spelled
    some field paths by hand (``encoder.blocks.0`` was ``encoder.block0``)."""
    name = re.sub(r"^encoder\.blocks\.(\d+)\.", r"encoder.block\1.", name)
    for path, old in (("encoder.projection.", "encoder.proj."),
                      ("decoder.self_attn.", "decoder.self."),
                      ("decoder.cross_attn.", "decoder.cross."),
                      ("head.", "head.out.")):
        if name.startswith(path):
            return old + name[len(path):]
    return name


def write_version_2(src, dst):
    """Rewrite the checkpoint at ``src`` to ``dst`` as format version 2
    stored it: the same buffer, its layout under the version 2 names."""
    with np.load(src, allow_pickle=False) as blob:
        entries = dict(blob)
    meta = json.loads(str(entries["__meta__"]))
    meta["format_version"] = 2
    meta["layout"] = [[_version_2_name(name), shape]
                      for name, shape in meta["layout"]]
    entries["__meta__"] = np.array(json.dumps(meta))
    np.savez(dst, **entries)
