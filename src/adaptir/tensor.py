"""Dense tensors with reverse-mode automatic differentiation.

The engine only needs a small operation set (matmul, grouped 2-D
convolution, spatial softmax, fused scaled dot-product attention,
layernorm, elementwise arithmetic, GELU and a few pointwise trig ops for
the frequency branch), so the graph is kept deliberately simple: every op
records a ``_Node`` holding its parents' nodes and its backward closure,
and appends nothing global -- the graph *is* the tape.  A node holds no
values: each closure captures only the arrays its backward reads, and
an input whose partner operand did not require grad is not kept at all,
so an intermediate tensor is freed as soon as the forward code drops it
unless a backward reads it.  ``attention`` walks its leading (batch) axis
one index at a time, so no batch-sized score matrix is ever alive.
``conv2d`` walks its batch in chunks of whole images and keeps its input,
not its im2col columns, so no batch-sized columns are ever alive either.
``gelu`` forms Phi(x) one block at a time and keeps one array, its slope.
``backward`` walks the nodes once in reverse topological order and
consumes them, freeing each closure and parent link as it goes; a second
``backward`` through that graph raises ``ContractError``.

Conventions fixed here:

* dtypes are float32 (training) or float64 (verification); binary ops take
  a tensor first, coerce a python scalar second and require matching dtypes.
* conv2d uses the cross-correlation convention (no kernel flip).
* gradients accumulate across ``backward`` calls (each on a fresh graph)
  until explicitly zeroed.
* whether an input requires grad is read when its op is recorded, and
  ``backward`` passes no gradient to an input that did not.  The ops that
  take a frozen weight or a constant (``mul``, ``matmul``, ``conv2d``,
  ``attention``, ``layernorm``) return ``None`` for such an input and keep
  nothing for it; the others hand back a gradient, which the walk drops.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "matmul",
    "conv2d",
    "depth_to_space",
    "softmax",
    "softmax_spatial",
    "attention",
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
            arr = arr.astype(np.float64)
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


def _check_dtypes(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
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
    _check_dtypes(a, b, op)
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
    shape, dtype = x.shape, x.dtype

    def backward(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

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
    _check_dtypes(y, x, "atan2")
    yd, xd = y.data, x.data
    data = np.arctan2(yd, xd)

    def backward(g):
        r2 = yd * yd + xd * xd
        safe = np.where(r2 == 0.0, 1.0, r2)
        gy = np.where(r2 == 0.0, 0.0, g * xd / safe)
        gx = np.where(r2 == 0.0, 0.0, -g * yd / safe)
        return gy.astype(yd.dtype, copy=False), gx.astype(xd.dtype, copy=False)

    return _node(data, (y, x), backward)


def hypot(a: Tensor, b: Tensor) -> Tensor:
    """sqrt(a^2 + b^2) with a zero subgradient at the origin."""
    _check_dtypes(a, b, "hypot")
    ad, bd = a.data, b.data
    data = np.hypot(ad, bd)

    def backward(g):
        safe = np.where(data == 0.0, 1.0, data)
        ga = np.where(data == 0.0, 0.0, g * ad / safe)
        gb = np.where(data == 0.0, 0.0, g * bd / safe)
        return ga.astype(ad.dtype, copy=False), gb.astype(bd.dtype, copy=False)

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
    num.fill(_ERF_T[0])
    _horner(z, _ERF_T[1:], num)
    den.fill(1.0)
    _horner(z, _ERF_U, den)
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


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF.

    It walks the flat input one block of ``_ERF_BLOCK_BYTES`` at a time and
    hands each block to ``_erf``, forming the block's Phi(x) in one reused
    scratch array, so no full-size Phi(x) is ever alive.  The tape keeps one
    array, the slope ``Phi(x) + x * pdf(x)``, built only when the op is
    recorded, so a ``no_grad`` forward computes none.  Value and slope are
    formed with the operations of ``xd * phi`` and ``phi + xd * pdf`` in
    their order, so both are bit-identical to those expressions."""
    flat = x.data.reshape(-1)  # in C order, like the value and the slope
    data = np.empty(x.shape, x.dtype)
    slope = np.empty(x.shape, x.dtype) if _records(x) else None
    step = _ERF_BLOCK_BYTES // x.dtype.itemsize
    scratch = np.empty(min(flat.size, step), x.dtype)
    for lo in range(0, flat.size, step):
        a = flat[lo:lo + step]
        phi = _erf(np.divide(a, _SQRT2, out=scratch[:a.size]))
        phi += 1.0
        phi *= 0.5
        np.multiply(a, phi, out=data.reshape(-1)[lo:lo + step])
        if slope is not None:
            s = np.multiply(-0.5, a, out=slope.reshape(-1)[lo:lo + step])
            s *= a
            np.exp(s, out=s)
            s *= _INV_SQRT_2PI
            s *= a
            s += phi

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
    _check_dtypes(a, b, "matmul")
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
        np.max(p, axis=-1, keepdims=True, out=rmax)
    p -= rmax
    np.exp(p, out=p)
    if reduce:
        np.sum(p, axis=-1, keepdims=True, out=rsum)
    p /= rsum
    return p


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """Scaled dot-product attention ``softmax(q @ k^T * scale) @ v`` as one node.

    q, k and v share their leading (batch) axes.  Forward and backward walk
    the first axis one index at a time and write each block's output and
    gradients into full-size results, so only one block's scores, not the
    whole batch's, are ever alive.  A block's scores are scaled, shifted,
    exponentiated and normalised in place on one buffer.  The tape keeps q,
    k, v and the row max and sum, not the probabilities: the backward
    recomputes them with the forward's own ops, as FlashAttention's backward
    does, and forms the score gradient in place.  Every block runs the
    operations of the matmul -> scale -> softmax -> matmul chain in the
    chain's order, and a stacked matmul or row reduction treats each 2-D
    slice on its own, so forward and backward are bit-identical to the
    chain.
    """
    _check_dtypes(q, k, "attention")
    _check_dtypes(q, v, "attention")
    if (q.ndim < 3 or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]
            or q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} do not chain")
    scale = q.dtype.type(scale)
    qd, kd, vd = q.data, k.data, v.data
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad
    dtype, blocks = q.dtype, q.shape[0]
    score_shape = q.shape[1:-1] + k.shape[-2:-1]
    data = np.empty(q.shape[:-1] + v.shape[-1:], dtype)
    rmax = np.empty(q.shape[:-1] + (1,), dtype)
    rsum = np.empty_like(rmax)
    p = np.empty(score_shape, dtype)
    for i in range(blocks):
        np.matmul(_attention_probs(qd[i], kd[i], scale, p, rmax[i], rsum[i], True), vd[i],
                  out=data[i])

    def backward(g):
        # k's gradient is formed transposed, as the chain's matmul forms it
        gq = np.empty(qd.shape, dtype) if rq else None
        gkt = np.empty(kd.shape[:-2] + (kd.shape[-1], kd.shape[-2]), dtype) if rk else None
        gv = np.empty(vd.shape, dtype) if rv else None
        p, gp = np.empty(score_shape, dtype), np.empty(score_shape, dtype)
        for i in range(blocks):
            _attention_probs(qd[i], kd[i], scale, p, rmax[i], rsum[i], False)
            if rv:
                np.matmul(np.swapaxes(p, -1, -2), g[i], out=gv[i])
            np.matmul(g[i], np.swapaxes(vd[i], -1, -2), out=gp)
            gp -= (gp * p).sum(axis=-1, keepdims=True)
            gp *= p
            gp *= scale
            if rq:
                np.matmul(gp, kd[i], out=gq[i])
            if rk:
                np.matmul(np.swapaxes(qd[i], -1, -2), gp, out=gkt[i])
        return gq, None if gkt is None else np.swapaxes(gkt, -1, -2), gv

    return _node(data, (q, k, v), backward)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer normalization over the last axis (eps 1e-5) with affine parameters."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data
    gd, dtype = gamma.data, x.dtype
    rx, rg, rb = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        gx = ggamma = gbeta = None
        if rx:
            gg = g * gd
            gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                        - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
            gx = gx.astype(dtype, copy=False)
        if rg:
            ggamma = (g * xhat).sum(axis=axes).astype(dtype, copy=False)
        if rb:
            gbeta = g.sum(axis=axes).astype(dtype, copy=False)
        return gx, ggamma, gbeta

    return _node(data.astype(x.dtype, copy=False), (x, gamma, beta), backward)


# -- convolution -------------------------------------------------------------


def _im2col(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Columns of a padded N x C x Hp x Wp batch: a new contiguous
    N x C x K x K x Ho x Wo array."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # N x C x Ho x Wo x K x K view
    return np.ascontiguousarray(np.moveaxis(win, (4, 5), (2, 3)))


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
    bit-identical to the whole-batch form.
    """
    _check_dtypes(x, w, "conv2d")
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D x and w, got {x.shape} and {w.shape}")
    n, cin, h, wd = x.shape
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

    pad = (k - 1) // 2
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    dtype, xd = x.dtype, x.data
    chunk = max(1, _CONV_BLOCK_BYTES // (cin * k * k * ho * wo * dtype.itemsize))
    chunks = [slice(lo, lo + chunk) for lo in range(0, n, chunk)]

    def columns(c: slice, xp: np.ndarray) -> np.ndarray:
        """One chunk's (images, groups, Cin/groups*K*K, Ho*Wo) columns, padded
        in ``xp``, a zero buffer of ``chunk`` padded images reused across
        chunks: only its interior is ever written."""
        xc = xd[c]
        xp = xp[:len(xc)]
        xp[:, :, pad:pad + h, pad:pad + wd] = xc
        return _im2col(xp, k, stride).reshape(-1, groups, cin_g * k * k, ho * wo)

    def padded():
        return np.zeros((min(chunk, n), cin, h + 2 * pad, wd + 2 * pad), dtype)

    w2 = w.data.reshape(groups, cout // groups, cin_g * k * k)
    out = np.empty((n, cout, ho, wo), dtype)
    out4 = out.reshape(n, groups, cout // groups, ho * wo)
    xp = padded()
    for c in chunks:
        np.matmul(w2, columns(c, xp), out=out4[c])
    has_bias = bias is not None
    if has_bias:
        out += bias.data.reshape(1, cout, 1, 1)
    rx, rw, rb = x.requires_grad, w.requires_grad, has_bias and bias.requires_grad
    # the input is kept only for the weight gradient, the weight only for
    # the input gradient; neither the padded input nor its columns are kept
    if not rw:
        xd = None
    kept_w = w2 if rx else None

    def backward(g):
        gl = g.reshape(n, groups, cout // groups, ho * wo)
        gx = gw = None
        if rw:
            xp = padded()
        if rx:
            gxp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=dtype)
        for c in chunks:
            if rw:
                part = np.matmul(gl[c], np.swapaxes(columns(c, xp), -1, -2))
                if gw is not None:
                    part[0] += gw
                gw = part.sum(axis=0)
            if rx:
                gcols = np.matmul(np.swapaxes(kept_w, -1, -2), gl[c])
                gcols = gcols.reshape(-1, cin, k, k, ho, wo)
                gxc = gxp[c]
                for i in range(k):
                    for j in range(k):
                        gxc[:, :, i:i + stride * ho:stride,
                            j:j + stride * wo:stride] += gcols[:, :, i, j]
        if rw:
            gw = gw.reshape(cout, cin_g, k, k).astype(dtype, copy=False)
        if rx:
            gx = gxp[:, :, pad:pad + h, pad:pad + wd]
        if not has_bias:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2, 3)).astype(dtype, copy=False) if rb else None)

    parents = (x, w, bias) if has_bias else (x, w)
    return _node(out, parents, backward)


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
