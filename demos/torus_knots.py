"""Torus knot braid words, their slope sequences, and the toroidal test."""

from tunnel_slopes import (
    format_slopes,
    format_word,
    is_toroidal,
    lower_slopes,
    semisimple_slopes_closed_form,
    staircase,
    toroidal_braid_word,
    torus_braid_word,
    torus_lower_slopes,
    torus_upper_slopes,
    upper_slopes,
)


def main():
    p, q = 13, 5
    print(f"torus knot T( {p}, {q} )")
    print(f"  staircase heights : {staircase(p, q)}")
    braid = torus_braid_word(p, q)
    print(f"  braid word        : {format_word(braid)}")

    upper = torus_upper_slopes(p, q)
    lower = torus_lower_slopes(p, q)
    print(f"  upper slopes      : {format_slopes(upper)}")
    print(f"  lower slopes      : {format_slopes(lower)}")

    # The closed forms agree with running the braid through the engine.
    assert upper == upper_slopes(braid)
    assert lower == lower_slopes(braid)
    print("  closed form matches the braid-word engine")
    print()

    # Torus-knot sequences are toroidal: monotone chains of odd slopes.  The
    # toroidal class is wider, and not every such chain is a torus knot's.
    assert is_toroidal(upper) and is_toroidal(lower)
    print("is_toroidal(upper) and is_toroidal(lower): both True")
    for a, b in [(7, 1), (7, 2)]:
        seq = semisimple_slopes_closed_form(a, b)
        print(f"K( {a}, {b} ) semisimple {format_slopes(seq)} -> {is_toroidal(seq)}")
    print()

    # Any monotone chain of odd slopes is realized by an explicit braid.
    chain = [3, 3, 5, 5]
    braid = toroidal_braid_word(chain)
    print(f"chain {chain} realized by: {format_word(braid)}")
    print(f"  upper slopes: {format_slopes(upper_slopes(braid))}")


if __name__ == "__main__":
    main()
