"""Word kernel: reduction, multiplication, substitution, cone classification.

Letters are nonzero signed integers; ``-i`` is the inverse of ``+i``.  A word
is a tuple of letters with no adjacent cancelling pair.
"""

INCLUDED = 1
MIXED = 0
DISJOINT = -1


def reduce_word(letters):
    """Freely reduce a letter sequence to a tuple."""
    out = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def multiply(x, y):
    """Product of two reduced words, reduced."""
    i = len(x)
    j = 0
    n = len(y)
    while i > 0 and j < n and x[i - 1] == -y[j]:
        i -= 1
        j += 1
    return x[:i] + y[j:]


def invert(x):
    return tuple(-letter for letter in reversed(x))


def apply_morphism(word, images, m):
    """Image of ``word`` under letter -> images[letter + m], freely reduced.

    ``images`` is a flat table of length 2m + 1 over the source letters
    -m..m (slot m unused); each entry is a reduced word in the target
    alphabet.
    """
    out = []
    for letter in word:
        for t in images[letter + m]:
            if out and out[-1] == -t:
                out.pop()
            else:
                out.append(t)
    return tuple(out)


def classify_cone(y, z, images, m, cancel):
    """Position of the image of the source cone at ``y`` relative to the
    target cone at ``z``.

    Walks the reduced source words ``u`` extending ``y``, tracking
    ``h = image(u)``; ``u`` lands in the target cone iff ``h`` starts with
    ``z``.  ``cancel`` bounds the letters of ``image(u)`` that any reduced
    extension ``u w`` cancels (bounded cancellation), so once ``len(h) >=
    len(z) + cancel`` the first ``len(z)`` letters of ``h`` are fixed on
    the whole cone at ``u`` and the branch is not expanded.  Every branch
    stops, because the image length grows at least linearly in ``len(u)``.

    Returns INCLUDED if every word of the cone is inside, DISJOINT if every
    one is outside, MIXED otherwise.
    """
    if not z:
        raise ValueError("target cone root must be nontrivial")
    n = len(z)
    settled = n + cancel
    seen_in = False
    seen_out = False
    stack = [(apply_morphism(y, images, m), y[-1] if y else 0)]
    while stack:
        h, last = stack.pop()
        if h[:n] == z:
            seen_in = True
        else:
            seen_out = True
        if seen_in and seen_out:
            return MIXED
        if len(h) >= settled:
            continue
        for letter in range(-m, m + 1):
            if letter == 0 or letter == -last:
                continue
            stack.append((multiply(h, images[letter + m]), letter))
    return INCLUDED if seen_in else DISJOINT
