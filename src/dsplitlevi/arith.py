"""Small exact routines: primality, factorisation, prime powers, and
the package's one division of polynomials over F_p.

The package needs these only for small integers: the odd prime power q
of a finite group of Lie type and l - 1 for a Dixon prime l.
``factorint`` is trial division and serves those small n only.
``isprime`` is a deterministic Miller-Rabin test and ``prime_power``
takes integer k-th roots, so both answer at once for every n below
2^64, where trial division would run for hours.

``fp_divmod`` takes integer coefficient lists, lowest degree first,
and returns them reduced modulo the prime p with no trailing zeros
(the zero polynomial is []).  The modular character tables divide
minimal polynomials by their linear factors with it.
"""

# Miller-Rabin with the first twelve prime bases has no strong
# pseudoprime below psi_12 = 318665857834031151167461, about 3.2e23
# (Sorenson & Webster, Math. Comp. 86, 2017), well past 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


class InputTooLarge(ValueError):
    """An input past a documented desk bound, refused before any work
    starts (in the command line: exit status 2 and one line on stderr)."""


def isprime(n):
    """Whether n is prime; exact for n below about 3.2e23."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality is decided only below "
                         f"{_MR_EXACT_BELOW}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n):
    """The prime factorisation {p: e} of n >= 1, primes ascending, by
    trial division: for small n only."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _iroot(n, k):
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q):
    """(p, m) with q = p^m and p prime, or None if q is no prime power.

    The largest k for which q is a perfect k-th power gives the only
    candidate base, so one primality test decides."""
    for k in range(q.bit_length(), 0, -1):
        r = _iroot(q, k)
        if r > 1 and r ** k == q:
            return (r, k) if isprime(r) else None
    return None


def _fp(a, p):
    """a reduced modulo p, trailing zeros trimmed."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def fp_divmod(a, b, p):
    """(quotient, remainder) of a by b != 0 over F_p, with
    deg remainder < deg b.  Each step cancels the top term of a; the
    remainder is reduced modulo p once, at the end."""
    while b and not b[-1] % p:
        b = b[:-1]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, p)
    m = len(b) - 1
    a = list(a)
    quot = [0] * max(0, len(a) - m)
    for i in range(len(a) - 1, m - 1, -1):
        c = quot[i - m] = a[i] * inv % p
        if c:
            for j, y in enumerate(b, i - m):
                a[j] -= c * y
    while quot and not quot[-1]:
        quot.pop()
    return quot, _fp(a[:m], p)
