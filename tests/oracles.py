"""Independent reference implementations used to derive expected test values.

Nothing in here imports from the package's numerics beyond the Tensor type
itself: gradients come from central finite differences on the raw float64
buffers, span/F1 references from a hand-written state machine, graph edges
from brute-force enumeration, padded batches from a per-sentence loop, the
embedding scatter from one bincount per column, AdamW from a per-parameter
loop. Tests compare the package against these.
"""

from collections import namedtuple

import numpy as np


def finite_difference(loss_fn, params, step=1e-5):
    """Central-difference gradient of ``loss_fn()`` w.r.t. each array.

    ``params`` is a list of float64 ndarrays that ``loss_fn`` reads; the
    arrays are perturbed in place and restored. Returns one gradient array
    per parameter.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_err(got, want, floor=1e-8):
    """max |got-want| / max(|want|, floor), elementwise."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / denom))


def masked_softmax(x, key_mask):
    """Softmax over the last axis of ``x`` with a -1e30 bias at masked keys.

    ``key_mask`` is (B, n_k) over the first and last axes (True = real key).
    Bias, max-shift, exp and normalise run as separate steps over the whole
    map; the fused attention ops must match this forward bitwise.
    """
    bias = np.where(key_mask, 0.0, -1e30)
    y = x + bias.reshape(x.shape[0], *(1,) * (x.ndim - 2), x.shape[-1])
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def leaky_relu(x, slope=0.2):
    """max(x, slope·x): x at x >= 0 (keeping -0.0) and slope·x below."""
    return np.maximum(x, x * slope)


def brute_force_edges(lengths):
    """All within-sample (source, target) pairs, source-major, with offsets."""
    src, tgt = [], []
    offset = 0
    for n in lengths:
        for i in range(n):
            for j in range(n):
                src.append(offset + i)
                tgt.append(offset + j)
        offset += n
    return src, tgt


GatHead = namedtuple("GatHead", ["W", "a"])  # W: (d, d_head); a: (2*d_head,)


def gat_head(params, i):
    """Per-head view (W_h, a_h) of GatParams, with a_h = [a_dst ; a_src]."""
    return GatHead(params.W.data[i],
                   np.concatenate([params.a_dst.data[i], params.a_src.data[i]]))


def attention_logits(h_src, h_dst, head, negative_slope=0.2):
    """Raw (pre-softmax) attention logit for one ordered pair of nodes."""
    dh = head.W.shape[1]
    z = float(head.a[:dh] @ (head.W.T @ h_dst) + head.a[dh:] @ (head.W.T @ h_src))
    return z if z >= 0 else negative_slope * z


def dense_gat_reference(H, W_heads, a_heads, proj_w, proj_b, slope=0.2):
    """Single GAT layer on a complete self-looped graph, dense formulation.

    H: (n, d). W_heads: list of (d, d_head). a_heads: list of (2*d_head,).
    Mirrors the published layer: e_ij = LeakyReLU(a ·[W h_i ; W h_j]) where i
    is the destination, softmax over j, ELU on head outputs, concat, project.
    Written with explicit python loops so it shares nothing with the package.
    """
    n = H.shape[0]
    head_outs = []
    alphas = []
    for W, a in zip(W_heads, a_heads):
        d_head = W.shape[1]
        Wh = np.stack([W.T @ H[i] for i in range(n)])  # (n, d_head)
        e = np.empty((n, n))
        for i in range(n):          # destination
            for j in range(n):      # source
                z = float(a[:d_head] @ Wh[i] + a[d_head:] @ Wh[j])
                e[i, j] = z if z >= 0 else slope * z
        alpha = np.empty_like(e)
        for i in range(n):
            row = e[i] - e[i].max()
            ex = np.exp(row)
            alpha[i] = ex / ex.sum()
        out = np.empty((n, d_head))
        for i in range(n):
            acc = np.zeros(d_head)
            for j in range(n):
                acc += alpha[i, j] * Wh[j]
            out[i] = np.where(acc > 0, acc, np.exp(np.minimum(acc, 0.0)) - 1.0)
        head_outs.append(out)
        alphas.append(alpha)
    concat = np.concatenate(head_outs, axis=1)
    return concat @ proj_w + proj_b, alphas


def bio_spans_reference(labels):
    """State-machine span extractor; returns {(type, start, end_inclusive)}.

    Lenient reading: I-X without an open X span opens one (boundary repair);
    O or a type change closes the open span.
    """
    spans = set()
    cur_type, cur_start = None, None
    for pos, lab in enumerate(labels):
        if lab == "O" or lab == "-100":
            if cur_type is not None:
                spans.add((cur_type, cur_start, pos - 1))
                cur_type = None
            continue
        prefix, etype = lab.split("-", 1)
        if prefix == "B":
            if cur_type is not None:
                spans.add((cur_type, cur_start, pos - 1))
            cur_type, cur_start = etype, pos
        else:  # I-
            if cur_type == etype:
                continue
            if cur_type is not None:
                spans.add((cur_type, cur_start, pos - 1))
            cur_type, cur_start = etype, pos
    if cur_type is not None:
        spans.add((cur_type, cur_start, len(labels) - 1))
    return spans


def f1_reference(gold_spans_per_sent, pred_spans_per_sent):
    """Micro/macro P/R/F1 by direct TP/FP/FN counting over span sets."""
    per_type = {}
    for gold, pred in zip(gold_spans_per_sent, pred_spans_per_sent):
        for sp in pred:
            bucket = per_type.setdefault(sp[0], [0, 0, 0])
            if sp in gold:
                bucket[0] += 1
            else:
                bucket[1] += 1
        for sp in gold:
            if sp not in pred:
                per_type.setdefault(sp[0], [0, 0, 0])[2] += 1

    def prf(tp, fp, fn):
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    tp = sum(v[0] for v in per_type.values())
    fp = sum(v[1] for v in per_type.values())
    fn = sum(v[2] for v in per_type.values())
    micro = prf(tp, fp, fn)
    gold_types = [t for t, v in per_type.items() if v[0] + v[2] > 0]
    macro = (sum(prf(*per_type[t])[2] for t in gold_types) / len(gold_types)
             if gold_types else 0.0)
    return micro, macro, per_type


ReferenceBatch = namedtuple("ReferenceBatch",
                            "token_ids attention_mask label_ids lengths")


def make_batches_reference(corpus, batch_size, max_len, token_vocab,
                           label_vocab, rng=None, encode_labels=True):
    """Padded batches built one sentence and one token at a time.

    Same contract as ``graphfuse.data.make_batches``: truncate to max_len,
    shuffle with one ``rng.permutation`` draw when rng is given, pad each
    batch to its longest sentence with id 0 and label -100, and map unseen
    tokens to id 1 and the label ``-100`` to -100.
    """
    order = list(range(len(corpus)))
    if rng is not None:
        order = [int(i) for i in rng.permutation(len(corpus))]
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = [corpus[i] for i in order[start:start + batch_size]]
        lengths = [min(len(s.tokens), max_len) for s in chunk]
        n_max = max(lengths)
        B = len(chunk)
        token_ids = np.zeros((B, n_max), dtype=np.int64)
        mask = np.zeros((B, n_max), dtype=bool)
        label_ids = np.full((B, n_max), -100, dtype=np.int64)
        for b, (sent, n) in enumerate(zip(chunk, lengths)):
            token_ids[b, :n] = [token_vocab.token_to_id.get(t, 1)
                                for t in sent.tokens[:n]]
            mask[b, :n] = True
            if encode_labels:
                label_ids[b, :n] = [-100 if l == "-100"
                                    else label_vocab.label_to_id[l]
                                    for l in sent.labels[:n]]
        batches.append(ReferenceBatch(token_ids, mask, label_ids, lengths))
    return batches


def scatter_add_rows_reference(values, rows, num_rows):
    """Sum rows of ``values`` (E, K) into ``num_rows`` buckets, one column at
    a time; ``np.bincount`` adds each column's values in row order."""
    out = np.empty((num_rows, values.shape[1]), dtype=np.float64)
    for k in range(values.shape[1]):
        out[:, k] = np.bincount(rows, weights=values[:, k], minlength=num_rows)
    return out


def adamw_step_reference(params, grads, state, lr, betas, eps, weight_decay):
    """One AdamW update, one parameter at a time, in place.

    ``params`` and ``grads`` map names to arrays. ``state`` is a dict that
    starts empty and holds the step count and the moments. Names ending in
    ``.b`` or containing ``.norm`` get no weight decay.
    """
    b1, b2 = betas
    state["step"] = t = state.get("step", 0) + 1
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.setdefault(("m", name), np.zeros_like(p))
        v = state.setdefault(("v", name), np.zeros_like(p))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay and not (name.endswith(".b") or ".norm" in name):
            update = update + weight_decay * p
        p -= lr * update
