"""Dense tensors with reverse-mode automatic differentiation.

The engine only needs a small operation set (matmul, grouped 2-D
convolution, spatial softmax, layernorm, multi-head attention with its
projections, a two-layer GELU perceptron and a conv -> GELU -> conv chain
as one node each, elementwise arithmetic, GELU and a few pointwise trig ops
for the frequency branch), so the graph is kept deliberately simple: every op records a ``_Node`` holding
its parents' nodes and its backward closure, and appends nothing global --
the graph *is* the tape.  A node holds no values: each closure captures
only the arrays its backward reads, and an input whose partner operand did
not require grad is not kept at all, so an intermediate tensor is freed as
soon as the forward code drops it unless a backward reads it.
``attention`` and ``mlp`` walk their batch one image at a time and
recompute in backward what is cheap to recompute: attention keeps its input
and the row max and sum, not q, k, v or the probabilities, and its backward
walks each image's heads one at a time; the MLP keeps only its input and
recomputes each image's pre-activation, GELU value and slope, so no
batch-sized q, k, v, score, pre-activation or hidden gradient is ever
alive.  ``conv2d`` walks its batch in chunks of whole images and keeps its
input, not its im2col columns, so no batch-sized columns are ever alive
either.  ``conv_gelu_conv``, the host's head, runs ``conv2d``'s own
array-level halves around GELU as one node that keeps only its input: its
backward recomputes conv1's output and GELU's value and slope.  ``gelu`` forms
Phi(x) one block at a time and keeps one array, its slope.  ``backward``
walks the nodes once in reverse topological order and consumes them,
freeing each closure and parent link as it goes; a second ``backward``
through that graph raises ``ContractError``.

Conventions fixed here:

* dtypes are float32 (training) or float64 (verification); binary ops take
  a tensor first and coerce a python scalar second.  Every op with two or
  more tensor inputs requires them to share one dtype and never casts its
  value or its gradients, so each stays in its inputs' dtype.
* conv2d uses the cross-correlation convention (no kernel flip).
* gradients accumulate across ``backward`` calls (each on a fresh graph)
  until explicitly zeroed.
* whether an input requires grad is read when its op is recorded, and
  ``backward`` passes no gradient to an input that did not.  The ops that
  take a frozen weight or a constant (``mul``, ``matmul``, ``conv2d``,
  ``conv_gelu_conv``, ``attention``, ``mlp``, ``layernorm``) return ``None``
  for such an input and keep nothing for it; the others hand back a
  gradient, which the walk drops.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "matmul",
    "conv2d",
    "conv_gelu_conv",
    "depth_to_space",
    "softmax",
    "softmax_spatial",
    "attention",
    "mlp",
    "layernorm",
    "gelu",
    "tsum",
    "tmean",
    "tabs",
    "sqrt",
    "cos",
    "sin",
    "atan2",
    "hypot",
    "reshape",
    "transpose",
    "finite_diff_grad",
]

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True
class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class ShapeError(ValueError):
    pass


class ContractError(RuntimeError):
    pass


class _Node:
    """One recorded op: its parents' nodes and its backward closure.

    A parent that did not require grad when the op was recorded is ``None``.
    A leaf tensor is its own node."""

    __slots__ = ("_parents", "_backward")

    def __init__(self, parents, backward):
        self._parents = parents
        self._backward = backward


class Tensor:
    """N-dimensional real array participating in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            raise ShapeError(f"a Tensor holds float32 or float64, got {arr.dtype}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._grad_fn: _Node | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _fail_scalar(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    # -- graph node ------------------------------------------------------

    @property
    def _parents(self) -> tuple:
        """Nodes of the recorded op's parents; ``()`` for a leaf."""
        return () if self._grad_fn is None else self._grad_fn._parents

    @property
    def _backward(self):
        """The recorded op's backward closure; ``None`` for a leaf."""
        return None if self._grad_fn is None else self._grad_fn._backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._grad_fn._backward = fn

    # -- grad plumbing ---------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` of every reachable leaf with requires_grad.

        The walk consumes the graph: every interior node it reaches loses its
        closure and parents, which frees its forward arrays as the walk goes.
        A later ``backward`` whose graph reaches such a node raises
        ``ContractError`` before any leaf gradient changes."""
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        root = _graph_node(self)
        topo: list = []
        seen: set[int] = set()
        stack: list[tuple] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        while topo:  # popping, so the list does not keep walked nodes alive
            node = topo.pop()
            g = grads.pop(id(node), None)
            if node._backward is None:
                # leaf: accumulate into .grad
                if g is not None and node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            if g is not None:
                for p, pg in zip(node._parents, node._backward(g)):
                    if p is None or pg is None:
                        continue
                    if id(p) in grads:
                        grads[id(p)] = grads[id(p)] + pg
                    else:
                        grads[id(p)] = pg
            node._backward = _consumed
            node._parents = ()

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _consumed(g):
    """The backward of a node whose graph an earlier ``backward`` walked."""
    raise ContractError("backward() through a graph an earlier backward() consumed")


def _fail_scalar(t: Tensor):
    raise ContractError(f"item() called on non-scalar tensor of shape {t.shape}")


def _check_dtypes(op: str, a: Tensor, *others: Tensor) -> None:
    for b in others:
        if b.dtype != a.dtype:
            raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def _graph_node(t: Tensor):
    return t if t._grad_fn is None else t._grad_fn


def _records(*parents: Tensor) -> bool:
    """Whether an op on ``parents`` records a node: an op whose backward keeps
    a derived array builds it only then."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _records(*parents):
        out.requires_grad = True
        out._grad_fn = _Node(
            tuple(_graph_node(p) if p.requires_grad else None for p in parents), backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def _binary(a: Tensor, b, op: str):
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    _check_dtypes(op, a, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable") from None
    return a, b


def add(a, b) -> Tensor:
    a, b = _binary(a, b, "add")
    data = a.data + b.data
    sa, sb = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _binary(a, b, "sub")
    data = a.data - b.data
    sa, sb = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Hadamard product (or scalar scaling) with broadcasting."""
    a, b = _binary(a, b, "mul")
    data = a.data * b.data
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    # each factor is kept only for the gradient of the other
    ad = a.data if rb else None
    bd = b.data if ra else None

    def backward(g):
        return (_unbroadcast(g * bd, sa) if ra else None,
                _unbroadcast(g * ad, sb) if rb else None)

    return _node(data, (a, b), backward)


# -- reductions -----------------------------------------------------------


def tsum(x: Tensor, axis=None) -> Tensor:
    data = x.data.sum(axis=axis)
    shape = x.shape

    def backward(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _node(data, (x,), backward)


def tmean(x: Tensor) -> Tensor:
    """Mean over every element."""
    return mul(tsum(x), 1.0 / x.size)


# -- pointwise nonlinearities ---------------------------------------------


def tabs(x: Tensor) -> Tensor:
    xd = x.data
    data = np.abs(xd)

    def backward(g):
        return (g * np.sign(xd),)

    return _node(data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    data = np.sqrt(x.data)
    tiny = np.finfo(x.dtype).tiny

    def backward(g):
        return (g * (0.5 / np.maximum(data, tiny)),)

    return _node(data, (x,), backward)


def cos(x: Tensor) -> Tensor:
    xd = x.data
    data = np.cos(xd)

    def backward(g):
        return (-g * np.sin(xd),)

    return _node(data, (x,), backward)


def sin(x: Tensor) -> Tensor:
    xd = x.data
    data = np.sin(xd)

    def backward(g):
        return (g * np.cos(xd),)

    return _node(data, (x,), backward)


def atan2(y: Tensor, x: Tensor) -> Tensor:
    """Four-quadrant arctangent; atan2(0, 0) is defined as 0 with zero grad."""
    _check_dtypes("atan2", y, x)
    yd, xd = y.data, x.data
    data = np.arctan2(yd, xd)

    def backward(g):
        r2 = yd * yd + xd * xd
        safe = np.where(r2 == 0.0, 1.0, r2)
        gy = np.where(r2 == 0.0, 0.0, g * xd / safe)
        gx = np.where(r2 == 0.0, 0.0, -g * yd / safe)
        return gy, gx

    return _node(data, (y, x), backward)


def hypot(a: Tensor, b: Tensor) -> Tensor:
    """sqrt(a^2 + b^2) with a zero subgradient at the origin."""
    _check_dtypes("hypot", a, b)
    ad, bd = a.data, b.data
    data = np.hypot(ad, bd)

    def backward(g):
        safe = np.where(data == 0.0, 1.0, data)
        ga = np.where(data == 0.0, 0.0, g * ad / safe)
        gb = np.where(data == 0.0, 0.0, g * bd / safe)
        return ga, gb

    return _node(data, (a, b), backward)


# python floats, not numpy scalars: NEP 50 lets them take the input's dtype,
# so an f32 graph stays f32 through erf and the backward
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# erf's rational forms from cephes' ndtr.c (Moshier, "Methods and Programs
# for Mathematical Functions", 1989), highest power first: x T(x^2) / U(x^2)
# for |x| <= 1 and 1 - exp(-x^2) P(|x|) / Q(|x|) past it.  U and Q are monic,
# their leading 1.0 left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# bytes of one gelu block: its scratch array and erf's three on the block stay
# in cache across the block's passes
_ERF_BLOCK_BYTES = 1 << 17
# bytes of one chunk's im2col columns: whole images per chunk, at least one
_CONV_BLOCK_BYTES = 1 << 20


def _horner(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    """``out = out * x + c`` for each ``c`` in ``coefs``, in place."""
    for c in coefs:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a C-contiguous float array, written over ``x`` and returned.

    It runs in ``x``'s dtype, since NEP 50 casts the python-float
    coefficients to it, on three scratch arrays of ``x``'s size: ``gelu``
    walks the blocks and hands each one here.  The |x| > 1 form runs only on
    the elements that need it, with |x| clipped at 6: erf is +-1.0 in f64
    from about 5.9 on, and the clip keeps +-inf finite."""
    a = x.reshape(-1)  # a view, written through
    z, num, den = np.empty((3, a.size), x.dtype)
    wide = np.flatnonzero(np.abs(a, out=z) > 1.0)
    xw = a[wide]  # read before x is overwritten
    # |x| <= 1 on every element, on x clipped to [-1, 1] in place so that no
    # element it does not keep can overflow
    np.clip(a, -1.0, 1.0, out=a)
    np.multiply(a, a, out=z)
    # each chain's first step formed without a fill: T0 z + T1, and z + U0
    np.multiply(z, _ERF_T[0], out=num)
    num += _ERF_T[1]
    _horner(z, _ERF_T[2:], num)
    _horner(z, _ERF_U[1:], np.add(z, _ERF_U[0], out=den))
    a *= num
    a /= den
    if wide.size:
        ax = np.minimum(np.abs(xw), 6.0)
        p = _horner(ax, _ERF_P[1:], np.full_like(ax, _ERF_P[0]))
        q = _horner(ax, _ERF_Q, np.ones_like(ax))
        y = np.exp(-(ax * ax))
        y *= p
        y /= q
        a[wide] = np.copysign(1.0 - y, xw)
    return x


def _gelu_into(x: np.ndarray, value: np.ndarray, slope: np.ndarray | None) -> None:
    """GELU of ``x`` written into ``value`` and, unless ``slope`` is None, its
    slope ``Phi(x) + x * pdf(x)`` into ``slope``; both C-contiguous, shaped
    like ``x``.

    It walks the flat input one block of ``_ERF_BLOCK_BYTES`` at a time and
    hands each block to ``_erf``, forming the block's Phi(x) in one reused
    scratch array, so no full-size Phi(x) is ever alive.  A block's slope is
    formed before its value, so ``value`` may be ``x`` itself.  Value and
    slope are formed with the operations of ``x * phi`` and ``phi + x * pdf``
    in their order, so both are bit-identical to those expressions."""
    flat, vflat = x.reshape(-1), value.reshape(-1)  # in C order
    sflat = None if slope is None else slope.reshape(-1)
    step = _ERF_BLOCK_BYTES // x.dtype.itemsize
    scratch = np.empty(min(flat.size, step), x.dtype)
    for lo in range(0, flat.size, step):
        a = flat[lo:lo + step]
        phi = _erf(np.divide(a, _SQRT2, out=scratch[:a.size]))
        phi += 1.0
        phi *= 0.5
        if sflat is not None:
            s = np.multiply(-0.5, a, out=sflat[lo:lo + step])
            s *= a
            np.exp(s, out=s)
            s *= _INV_SQRT_2PI
            s *= a
            s += phi
        np.multiply(a, phi, out=vflat[lo:lo + step])


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF.

    ``_gelu_into`` forms it block by block.  The tape keeps one array, the
    slope, built only when the op is recorded, so a ``no_grad`` forward
    computes none."""
    data = np.empty(x.shape, x.dtype)
    slope = np.empty(x.shape, x.dtype) if _records(x) else None
    _gelu_into(x.data, data, slope)

    def backward(g):
        return (g * slope,)

    return _node(data, (x,), backward)


# -- shape ops -------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)
    in_shape = x.shape

    def backward(g):
        return (g.reshape(in_shape),)

    return _node(data, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inv),)

    return _node(data, (x,), backward)


# -- matmul ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports broadcast leading batch dims like numpy."""
    _check_dtypes("matmul", a, b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul: inner extents differ for shapes {a.shape} and {b.shape}")
    data = np.matmul(a.data, b.data)
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    # each operand is kept only for the gradient of the other, so a frozen
    # weight keeps no activations
    ad = a.data if rb else None
    bd = b.data if ra else None

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa) if ra else None
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb) if rb else None
        return ga, gb

    return _node(data, (a, b), backward)


# -- softmax / layernorm -----------------------------------------------------


def softmax(x: Tensor) -> Tensor:  # over the last axis
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

    return _node(data, (x,), backward)


def softmax_spatial(x: Tensor) -> Tensor:
    """Softmax over all H*W positions of an N x 1 x H x W mask."""
    if x.ndim != 4 or x.shape[1] != 1:
        raise ShapeError(f"softmax_spatial expects N x 1 x H x W, got {x.shape}")
    n, _, h, w = x.shape
    flat = reshape(x, (n, 1, h * w))
    return reshape(softmax(flat), (n, 1, h, w))


def _attention_probs(q: np.ndarray, k: np.ndarray, scale, p: np.ndarray,
                     rmax: np.ndarray, rsum: np.ndarray, reduce: bool) -> np.ndarray:
    """Write one block's ``softmax(q @ k^T * scale)`` into ``p`` in place.

    With ``reduce`` the row max and sum are written into ``rmax`` and
    ``rsum``; without, those of an earlier call on the same q and k are
    read, both reductions are skipped and the probabilities are
    bit-identical."""
    np.matmul(q, np.swapaxes(k, -1, -2), out=p)
    p *= scale
    if reduce:
        np.fmax.reduce(p, axis=-1, keepdims=True, out=rmax)  # a NaN row still ends all-NaN
    p -= rmax
    np.exp(p, out=p)
    if reduce:
        np.sum(p, axis=-1, keepdims=True, out=rsum)
    p /= rsum
    return p


def _split_heads(z: np.ndarray, heads: int) -> np.ndarray:
    """One image's (tokens, C) array as a (heads, tokens, C/heads) view."""
    t, c = z.shape
    return z.reshape(t, heads, c // heads).transpose(1, 0, 2)


def _merge_heads(z: np.ndarray) -> np.ndarray:
    """One image's (heads, tokens, C/heads) array as (tokens, C): a view when
    the layout allows one, else a C-contiguous copy, as ``reshape`` makes."""
    heads, t, dh = z.shape
    return z.transpose(1, 0, 2).reshape(t, heads * dh)


def _project(x: np.ndarray, w: np.ndarray, b: np.ndarray, heads: int) -> np.ndarray:
    """One image's ``x @ w^T + b``, split into heads."""
    z = np.matmul(x, w.T)
    z += b
    return _split_heads(z, heads)


def _transposed(a: np.ndarray | None) -> np.ndarray | None:
    return None if a is None else a.T


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor, wv: Tensor,
              bv: Tensor, wo: Tensor, bo: Tensor, heads: int) -> Tensor:
    """Multi-head self-attention over the tokens of an N x T x C ``x`` as one
    node: q, k and v are ``x @ w^T + b``, split into ``heads``; each head's
    ``softmax(q @ k^T / sqrt(C/heads)) @ v`` is merged back and projected by
    ``wo``, ``bo``.

    Forward and backward walk the batch one image at a time and write each
    image's output and input gradient into full-size results, so only one
    image's q, k, v and scores are ever alive.  A block's scores are scaled,
    shifted, exponentiated and normalised in place on one buffer.  The tape
    keeps ``x`` and the row max and sum, built only when the op is recorded:
    the backward recomputes each image's q, k and v, and each head's
    probabilities (and context, when ``wo`` trains) with the forward's own
    ops, as FlashAttention's backward does.  The backward walks an image's
    heads one at a time on three reused (tokens, tokens) buffers, so no
    (heads, tokens, tokens) array is alive in it.  Every image runs the
    operations of the ``x @ w^T + b`` -> head split -> matmul -> scale ->
    softmax -> matmul -> merge -> ``@ wo^T + bo`` chain in the chain's
    order and layouts, each weight gradient is the transposed view of
    ``x^T @ g`` summed over the batch in order, and each bias gradient is
    reduced in the order a whole-batch sum takes, so forward and backward
    are bit-identical to the chain.
    """
    params = (wq, bq, wk, bk, wv, bv, wo, bo)
    _check_dtypes("attention", x, *params)
    c = x.shape[-1] if x.ndim == 3 else 0
    if (not c or heads < 1 or c % heads
            or tuple(w.shape for w in params) != ((c, c), (c,)) * 4):
        raise ShapeError(f"attention: x {x.shape} with {heads} heads does not chain with"
                         f" weights {[w.shape for w in params]}")
    n, t, _ = x.shape
    dtype, xd = x.dtype, x.data
    wqd, bqd, wkd, bkd, wvd, bvd, wod, bod = (w.data for w in params)
    qkv = ((wqd, bqd), (wkd, bkd), (wvd, bvd))
    scale = dtype.type(1.0 / np.sqrt(c // heads))
    recorded = _records(x, *params)
    rmax = np.empty((n if recorded else 1, heads, t, 1), dtype)
    rsum = np.empty_like(rmax)
    p = np.empty((heads, t, t), dtype)
    ctx = np.empty((heads, t, c // heads), dtype)
    data = np.empty((n, t, c), dtype)
    for i in range(n):
        r = i if recorded else 0  # unrecorded, one image's row max and sum are reused
        q, k, v = (_project(xd[i], w, b, heads) for w, b in qkv)
        np.matmul(_attention_probs(q, k, scale, p, rmax[r], rsum[r], True), v, out=ctx)
        np.matmul(_merge_heads(ctx), wod.T, out=data[i])
    data += bod
    rx, rwq, rbq, rwk, rbk, rwv, rbv, rwo, rbo = (a.requires_grad for a in (x,) + params)
    need_q, need_k, need_v = rx or rwq or rbq, rx or rwk or rbk, rx or rwv or rbv

    def backward(g):
        gx = np.empty((n, t, c), dtype) if rx else None
        # weight gradients are formed transposed, as x^T @ g, and summed over
        # the batch in order from zero, as the chain's matmul forms them
        gwq, gwk, gwv, gwo = (np.zeros((c, c), dtype) if r else None
                              for r in (rwq, rwk, rwv, rwo))
        gbq, gbk, gbv = (np.zeros(c, dtype) if r else None for r in (rbq, rbk, rbv))
        # one head's probabilities, score gradient and their product, and one
        # image's merged context and q, k and v gradients, reused throughout;
        # k's is held transposed, as the chain's matmul forms it, so that its
        # (tokens, C) view has contiguous tokens
        p, gp, pgp = (np.empty((t, t), dtype) for _ in range(3))
        ctx, gq, gv, gkt = (np.empty(s, dtype) for s in ((t, c),) * 3 + ((c, t),))
        dh = c // heads
        for i in range(n):
            xi, gi = xd[i], g[i]
            q, k, v = (_project(xi, w, b, heads) for w, b in qkv)
            gctx = _split_heads(np.matmul(gi, wod), heads)
            for hd in range(heads):
                cols = slice(hd * dh, (hd + 1) * dh)
                _attention_probs(q[hd], k[hd], scale, p, rmax[i, hd], rsum[i, hd], False)
                if rwo:
                    np.matmul(p, v[hd], out=ctx[:, cols])
                if need_v:
                    np.matmul(p.T, gctx[hd], out=gv[:, cols])
                if need_q or need_k:
                    np.matmul(gctx[hd], v[hd].T, out=gp)
                    gp -= np.multiply(gp, p, out=pgp).sum(axis=-1, keepdims=True)
                    gp *= p
                    gp *= scale
                if need_q:
                    np.matmul(gp, k[hd], out=gq[:, cols])
                if need_k:
                    np.matmul(q[hd].T, gp, out=gkt[cols])
            gk = gkt.T
            if rwo:
                gwo += np.matmul(ctx.T, gi)
            if rx:
                np.matmul(gq, wqd, out=gx[i])
                gx[i] += np.matmul(gk, wkd)
                gx[i] += np.matmul(gv, wvd)
            for gz, gw in ((gq, gwq), (gk, gwk), (gv, gwv)):
                if gw is not None:
                    gw += np.matmul(xi.T, gz)
            # a whole-batch sum over the tokens adds q's and v's contiguous
            # rows one after another, running on from the last image's sum,
            # and sums each of k's contiguous columns pairwise
            for gz, gb in ((gq, gbq), (gv, gbv)):
                if gb is not None:
                    gz[0] += gb
                    gz.sum(axis=0, out=gb)
            if rbk:
                gbk += gk.sum(axis=0)
        return (gx, _transposed(gwq), gbq, _transposed(gwk), gbk, _transposed(gwv), gbv,
                _transposed(gwo), g.sum(axis=(0, 1)) if rbo else None)

    return _node(data, (x,) + params, backward)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two dense layers over the last axis of an N x T x C ``x`` as one node:
    ``gelu(x @ w1^T + b1) @ w2^T + b2``.  Its callers are the host layer's MLP
    and the adapter's CSM, whose FFN hands it N pooled vectors as one image.

    Forward and backward walk the batch one image at a time and write each
    image's output and input gradient into full-size results, so no
    whole-batch pre-activation or hidden gradient is ever alive.  The tape
    keeps only the arrays the forward read and the forward forms GELU's
    value alone, as under ``no_grad``: the backward recomputes each image's
    pre-activation, value and slope, as gradient checkpointing does.
    Every image runs the operations of the dense -> ``gelu`` -> dense chain
    in the chain's order, each weight gradient is the transposed view of
    ``x^T @ g`` summed over the batch in order and each bias gradient is
    reduced in the order a whole-batch sum takes, so forward and backward
    are bit-identical to the chain.
    """
    params = (w1, b1, w2, b2)
    _check_dtypes("mlp", x, *params)
    if (x.ndim != 3 or w1.ndim != 2 or w2.ndim != 2 or w1.shape[1] != x.shape[-1]
            or b1.shape != w1.shape[:1] or w2.shape[1] != w1.shape[0]
            or b2.shape != w2.shape[:1]):
        raise ShapeError(f"mlp: x {x.shape} does not chain with weights"
                         f" {[w.shape for w in params]}")
    n, t, c = x.shape
    hid, cout = w2.shape[1], w2.shape[0]
    dtype, xd = x.dtype, x.data
    w1d, b1d, w2d, b2d = (w.data for w in params)

    def hidden(i, h, slope):
        """Image ``i``'s GELU value, over ``h``; its slope into ``slope`` unless None."""
        np.matmul(xd[i], w1d.T, out=h)
        h += b1d
        _gelu_into(h, h, slope)
        return h

    h, data = np.empty((t, hid), dtype), np.empty((n, t, cout), dtype)
    for i in range(n):
        np.matmul(hidden(i, h, None), w2d.T, out=data[i])
    data += b2d
    rx, rw1, rb1, rw2, rb2 = (a.requires_grad for a in (x,) + params)
    # every gradient but b2's and w2's goes through the pre-activation's
    need_h = rx or rw1 or rb1

    def backward(g):
        gx = np.empty((n, t, c), dtype) if rx else None
        gw1 = np.zeros((c, hid), dtype) if rw1 else None
        gw2 = np.zeros((hid, cout), dtype) if rw2 else None
        gb1 = np.zeros(hid, dtype) if rb1 else None
        h, slope = np.empty((t, hid), dtype), np.empty((t, hid), dtype) if need_h else None
        for i in range(n if need_h or rw2 else 0):
            value = hidden(i, h, slope)
            if rw2:
                gw2 += np.matmul(value.T, g[i])
            if not need_h:
                continue
            gh = np.matmul(g[i], w2d, out=h)
            gh *= slope
            if rx:
                np.matmul(gh, w1d, out=gx[i])
            if rw1:
                gw1 += np.matmul(xd[i].T, gh)
            if rb1:  # rows added one after another, running on from the last image's sum
                gh[0] += gb1
                gh.sum(axis=0, out=gb1)
        return (gx, _transposed(gw1), gb1, _transposed(gw2),
                g.sum(axis=(0, 1)) if rb2 else None)

    return _node(data, (x,) + params, backward)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer normalization over the last axis (eps 1e-5) with affine parameters."""
    _check_dtypes("layernorm", x, gamma, beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data
    gd = gamma.data
    rx, rg, rb = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        gx = ggamma = gbeta = None
        if rx:
            gg = g * gd
            gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                        - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        if rg:
            ggamma = (g * xhat).sum(axis=axes)
        if rb:
            gbeta = g.sum(axis=axes)
        return gx, ggamma, gbeta

    return _node(data, (x, gamma, beta), backward)


# -- convolution -------------------------------------------------------------


def _im2col(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Columns of a padded N x C x Hp x Wp batch: a new contiguous
    N x C x K x K x Ho x Wo array."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # N x C x Ho x Wo x K x K view
    return np.ascontiguousarray(np.moveaxis(win, (4, 5), (2, 3)))


def _conv_chunks(shape, k: int, stride: int, itemsize: int):
    """The output extent (Ho, Wo) of a K x K 'same' conv over an N x Cin x H x
    W ``shape``, and its chunks: slices of whole images whose im2col columns
    fit in ``_CONV_BLOCK_BYTES``, at least one image each."""
    n, cin, h, w = shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    chunk = max(1, _CONV_BLOCK_BYTES // (cin * k * k * ho * wo * itemsize))
    return ho, wo, [slice(lo, lo + chunk) for lo in range(0, n, chunk)]


def _conv_columns(xd: np.ndarray, k: int, stride: int, groups: int):
    """``columns(c)``: the (images, groups, Cin/groups*K*K, Ho*Wo) columns of
    the chunk ``xd[c]``, padded in one zero buffer reused across chunks: only
    its interior is ever written."""
    n, cin, h, w = xd.shape
    pad = (k - 1) // 2
    ho, wo, chunks = _conv_chunks(xd.shape, k, stride, xd.dtype.itemsize)
    xp = np.zeros((len(xd[chunks[0]]), cin, h + 2 * pad, w + 2 * pad), xd.dtype)

    def columns(c: slice) -> np.ndarray:
        xc = xd[c]
        xpc = xp[:len(xc)]
        xpc[:, :, pad:pad + h, pad:pad + w] = xc
        return _im2col(xpc, k, stride).reshape(len(xc), groups, -1, ho * wo)

    return columns


def _conv_forward(xd: np.ndarray, wd: np.ndarray, groups: int, stride: int) -> np.ndarray:
    """``xd`` cross-correlated with ``wd``, without a bias, one chunk at a time."""
    n = len(xd)
    cout, cin_g, k, _ = wd.shape
    ho, wo, chunks = _conv_chunks(xd.shape, k, stride, xd.dtype.itemsize)
    columns = _conv_columns(xd, k, stride, groups)
    out = np.empty((n, cout, ho, wo), xd.dtype)
    out4 = out.reshape(n, groups, cout // groups, ho * wo)
    w2 = wd.reshape(groups, cout // groups, cin_g * k * k)
    for c in chunks:
        np.matmul(w2, columns(c), out=out4[c])
    return out


def _conv_input_grad(g: np.ndarray, wd: np.ndarray, shape, groups: int,
                     stride: int) -> np.ndarray:
    """The gradient of ``_conv_forward`` for its input, of ``shape``: each
    chunk's column gradients added into a padded buffer, of which it is the
    interior view."""
    n, cin, h, w = shape
    cout, cin_g, k, _ = wd.shape
    pad = (k - 1) // 2
    ho, wo, chunks = _conv_chunks(shape, k, stride, g.dtype.itemsize)
    gl = g.reshape(n, groups, cout // groups, ho * wo)
    wt = np.swapaxes(wd.reshape(groups, cout // groups, cin_g * k * k), -1, -2)
    gxp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad), g.dtype)
    for c in chunks:
        gcols = np.matmul(wt, gl[c]).reshape(-1, cin, k, k, ho, wo)
        gxc = gxp[c]
        for i in range(k):
            for j in range(k):
                gxc[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, i, j]
    return gxp[:, :, pad:pad + h, pad:pad + w]


def _conv_weight_grad(g: np.ndarray, xd: np.ndarray, k: int, groups: int,
                      stride: int) -> np.ndarray:
    """The gradient of ``_conv_forward`` for its K x K weight: each chunk's
    images' products, added up in batch order as a sum over the batch axis
    adds them."""
    n, cout = g.shape[:2]
    gl = g.reshape(n, groups, cout // groups, -1)
    _, _, chunks = _conv_chunks(xd.shape, k, stride, xd.dtype.itemsize)
    columns = _conv_columns(xd, k, stride, groups)
    gw = None
    for c in chunks:
        part = np.matmul(gl[c], np.swapaxes(columns(c), -1, -2))
        if gw is not None:
            part[0] += gw
        gw = part.sum(axis=0)
    return gw.reshape(cout, -1, k, k)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           groups: int = 1, stride: int = 1) -> Tensor:
    """Grouped 2-D cross-correlation with zero 'same' padding.

    ``x`` is N x Cin x H x W, ``w`` is Cout x (Cin/groups) x K x K,
    ``bias`` is Cout. K must be odd; padding is (K-1)//2 on every side, so
    stride 1 preserves the spatial extent.

    Forward and backward walk the batch in chunks of whole images whose
    im2col columns fit in ``_CONV_BLOCK_BYTES``, so only one chunk's columns
    are ever alive.  The tape keeps the input only when the weight trains
    and the weight only when the input does; the backward rebuilds each
    chunk's columns from the kept input.  Each image's products are the
    whole batch's, and the weight gradient adds them up in batch order, as
    a sum over the batch axis does, so every value and gradient is
    bit-identical to the whole-batch form.  ``conv_gelu_conv`` runs on the
    same array-level halves.
    """
    parents = (x, w) if bias is None else (x, w, bias)
    _check_dtypes("conv2d", *parents)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D x and w, got {x.shape} and {w.shape}")
    cin = x.shape[1]
    cout, cin_g, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"conv2d requires odd square kernels, got {k}x{k2}")
    if cin % groups != 0 or cout % groups != 0:
        raise ShapeError(f"conv2d: groups={groups} does not divide Cin={cin}/Cout={cout}")
    if cin_g != cin // groups:
        raise ShapeError(
            f"conv2d: kernel expects Cin/groups={cin_g}, input has Cin={cin} with groups={groups}"
        )
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({cout},)")

    out = _conv_forward(x.data, w.data, groups, stride)
    has_bias = bias is not None
    if has_bias:
        out += bias.data.reshape(1, cout, 1, 1)
    rx, rw, rb = x.requires_grad, w.requires_grad, has_bias and bias.requires_grad
    # the input is kept only for the weight gradient, the weight only for
    # the input gradient; neither the padded input nor its columns are kept
    xd = x.data if rw else None
    kept_w = w.data if rx else None
    shape = x.shape

    def backward(g):
        gx = _conv_input_grad(g, kept_w, shape, groups, stride) if rx else None
        gw = _conv_weight_grad(g, xd, k, groups, stride) if rw else None
        if not has_bias:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2, 3)) if rb else None)

    return _node(out, parents, backward)


def conv_gelu_conv(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                   stride: int = 1) -> Tensor:
    """``conv2d(gelu(conv2d(x, w1, b1)), w2, b2, stride=stride)`` as one
    node: the host's head.

    The forward forms GELU's value alone over conv1's output, as under
    ``no_grad``, and the tape keeps only the arrays the forward read, not
    conv1's output, GELU's value or its slope: the backward recomputes all
    three, as ``mlp``'s does.  Both convs run on ``conv2d``'s own forward
    and gradient halves, and conv1's output gradient is formed with the
    operations of the chain, so every value and gradient is bit-identical
    to the chain.
    """
    params = (w1, b1, w2, b2)
    _check_dtypes("conv_gelu_conv", x, *params)
    if (x.ndim != 4 or w1.ndim != 4 or w2.ndim != 4 or w1.shape[1] != x.shape[1]
            or w2.shape[1] != w1.shape[0] or b1.shape != w1.shape[:1]
            or b2.shape != w2.shape[:1]
            or any(w.shape[2] != w.shape[3] or w.shape[2] % 2 == 0 for w in (w1, w2))):
        raise ShapeError(f"conv_gelu_conv: x {x.shape} does not chain with weights"
                         f" {[w.shape for w in params]}")
    xd, w1d, b1d, w2d, b2d = (a.data for a in (x,) + params)
    k1, k2 = w1.shape[2], w2.shape[2]

    def hidden(slope):
        """GELU over conv1's output; its slope into ``slope`` unless None."""
        h = _conv_forward(xd, w1d, 1, 1)
        h += b1d.reshape(1, -1, 1, 1)
        _gelu_into(h, h, slope)
        return h

    data = _conv_forward(hidden(None), w2d, 1, stride)
    data += b2d.reshape(1, -1, 1, 1)
    rx, rw1, rb1, rw2, rb2 = (a.requires_grad for a in (x,) + params)
    # every gradient but b2's and w2's goes through conv1's output's
    need_h = rx or rw1 or rb1
    hshape = (len(xd), w1.shape[0]) + x.shape[2:]

    def backward(g):
        gx = gw1 = gb1 = gw2 = None
        slope = np.empty(hshape, xd.dtype) if need_h else None
        if rw2:
            gw2 = _conv_weight_grad(g, hidden(slope), k2, 1, stride)
        elif need_h:
            hidden(slope)
        if need_h:
            gh = slope  # conv1's output gradient, formed over the slope
            gh *= _conv_input_grad(g, w2d, hshape, 1, stride)
            if rx:
                gx = _conv_input_grad(gh, w1d, xd.shape, 1, 1)
            if rw1:
                gw1 = _conv_weight_grad(gh, xd, k1, 1, 1)
            if rb1:
                gb1 = gh.sum(axis=(0, 2, 3))
        return gx, gw1, gb1, gw2, g.sum(axis=(0, 2, 3)) if rb2 else None

    return _node(data, (x,) + params, backward)


def depth_to_space(x: Tensor, factor: int) -> Tensor:
    """Pixel shuffle: N x (C*f^2) x H x W -> N x C x (H*f) x (W*f)."""
    n, c, h, w = x.shape
    f = factor
    if c % (f * f) != 0:
        raise ShapeError(f"depth_to_space: channels {c} not divisible by {f * f}")
    co = c // (f * f)
    data = x.data.reshape(n, co, f, f, h, w)
    data = data.transpose(0, 1, 4, 2, 5, 3).reshape(n, co, h * f, w * f)

    def backward(g):
        gg = g.reshape(n, co, h, f, w, f).transpose(0, 1, 3, 5, 2, 4)
        return (gg.reshape(n, c, h, w),)

    return _node(np.ascontiguousarray(data), (x,), backward)


# -- verification oracle -------------------------------------------------------


def finite_diff_grad(f, x: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``f`` at ``x``.

    ``f`` receives a Tensor and must return a scalar Tensor (or float);
    the input is perturbed one element at a time.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = x.data.copy()
    grad = np.zeros_like(base, dtype=np.float64)
    flat = grad.reshape(-1)
    with no_grad():
        for i in range(base.size):
            idx = np.unravel_index(i, base.shape)
            x.data = base.copy()
            x.data[idx] += eps
            fp = f(x)
            fp = fp.item() if isinstance(fp, Tensor) else float(fp)
            x.data = base.copy()
            x.data[idx] -= eps
            fm = f(x)
            fm = fm.item() if isinstance(fm, Tensor) else float(fm)
            flat[i] = (fp - fm) / (2.0 * eps)
    x.data = base
    return grad
