//! Pins what `netlist::parse` answers on the edge cases of the text format:
//! the canonical `dump` of every text it accepts, and the exact error of
//! every text it rejects (for a syntax error, its line and message).
//!
//! The table was recorded against the line-splitting parser and must hold
//! unchanged for any parser that replaces it.

use htd_rtl::{netlist, DesignError};

/// What parsing one text must give.
enum Want {
    /// The canonical dump of the parsed design.
    Dump(&'static str),
    /// A syntax error at this line with exactly this message.
    Parse(usize, &'static str),
    /// Any other error, by its display text.
    Other(&'static str),
}

use Want::{Dump, Other, Parse};

const CASES: &[(&str, Want)] = &[
    // Unicode and ASCII whitespace between tokens, in headers, expressions
    // and tables alike.
    (
        "design\u{2003}d\ninput\u{a0}a\x0b4\ninput\u{85}b\x0c4\n\
         output\u{2003}o\u{3000}4 =\t(xor\u{a0}a\u{85}b)\n",
        Dump("design d\ninput a 4\ninput b 4\noutput o 4 = (xor a b)\n"),
    ),
    (
        "  design d  \n\t input a 2 \ninput i 2\n\
         table\u{a0}@0\u{2003}(\u{205f}1\u{3000}2 3\u{1680}0 )\n\
         output o 2 =\u{2028}(\u{a0}rom 2 @0 (\tnot\u{2029}i\u{202f}) )\n",
        Dump(
            "design d\ninput a 2\ninput i 2\ntable @0 (0x1 0x2 0x3 0x0)\n\
             output o 2 = (rom 2 @0 (not i))\n",
        ),
    ),
    // A zero-width space is not whitespace: it is part of the name.
    (
        "design d\ninput a\u{200b}b 4\noutput o 4 = a\u{200b}b\n",
        Dump("design d\ninput a\u{200b}b 4\noutput o 4 = a\u{200b}b\n"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = a\u{200b}\n",
        Parse(3, "unknown signal `a\u{200b}`"),
    ),
    // CRLF line endings, a bare `\r` between tokens, and a final line
    // without a newline.
    (
        "design d\r\ninput a 4\r\n\r\nregister r 4 0x3\r\nnext r = (add r a)\r\noutput o 4 = r",
        Dump("design d\ninput a 4\nregister r 4 0x3\noutput o 4 = r\nnext r = (add r a)\n"),
    ),
    (
        "design d\rinput a 4\n",
        Parse(1, "invalid design name `d\rinput a 4`: '\\r' is reserved"),
    ),
    (
        "design d\r\ninput\ra\r4\r\noutput o 4 = a\r\nbogus\r\n",
        Parse(4, "unknown keyword `bogus`"),
    ),
    // `#` right after a token, inside an expression, and on its own line.
    (
        "# header\ndesign d# name\ninput a 4#width\n#\noutput o 4 = (not a)#done\n",
        Dump("design d\ninput a 4\noutput o 4 = (not a)\n"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (not a# )\n",
        Parse(3, "missing `)` after `not`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 #= a\n",
        Parse(3, "expected `= <expr>`"),
    ),
    // Numbers: a leading `+`, `0X`, 128-bit values, leading zeros, and the
    // first values that overflow.
    (
        "design d\ninput a +8\n\
         output o 1 = (eq a (const 0x8 +5))\n\
         output p 1 = (eq a (const 8 0X1F))\n\
         output q 1 = (eq a (const 8 0x+7))\n\
         output r 1 = (eq a (const 8 0000000000000000000000000000000042))\n\
         output s 1 = (eq a (const 8 0x00000000000000000000000000000000000000ff))\n",
        Dump(
            "design d\ninput a 8\n\
             output o 1 = (eq a (const 8 0x5))\n\
             output p 1 = (eq a (const 8 0x1f))\n\
             output q 1 = (eq a (const 8 0x7))\n\
             output r 1 = (eq a (const 8 0x2a))\n\
             output s 1 = (eq a (const 8 0xff))\n",
        ),
    ),
    (
        "design d\n\
         output m 128 = (const 128 340282366920938463463374607431768211455)\n\
         output h 128 = (const 128 0xffffffffffffffffffffffffffffffff)\n\
         output w 64 = (const 64 18446744073709551615)\n\
         output x 65 = (const 65 18446744073709551616)\n\
         output y 65 = (const 65 0x10000000000000000)\n\
         output z 64 = (const 64 9999999999999999999)\n\
         register r 128 0xfffffffffffffffffffffffffffffffe\n\
         next r = r\n",
        Dump(
            "design d\n\
             output m 128 = (const 128 0xffffffffffffffffffffffffffffffff)\n\
             output h 128 = (const 128 0xffffffffffffffffffffffffffffffff)\n\
             output w 64 = (const 64 0xffffffffffffffff)\n\
             output x 65 = (const 65 0x10000000000000000)\n\
             output y 65 = (const 65 0x10000000000000000)\n\
             output z 64 = (const 64 0x8ac7230489e7ffff)\n\
             register r 128 0xfffffffffffffffffffffffffffffffe\n\
             next r = r\n",
        ),
    ),
    (
        "design d\noutput o 128 = (const 128 340282366920938463463374607431768211456)\n",
        Parse(
            2,
            "invalid number `340282366920938463463374607431768211456`",
        ),
    ),
    (
        "design d\noutput o 128 = (const 128 0x100000000000000000000000000000000)\n",
        Parse(2, "invalid number `0x100000000000000000000000000000000`"),
    ),
    (
        "design d\noutput o 8 = (const 8 -1)\n",
        Parse(2, "invalid number `-1`"),
    ),
    (
        "design d\noutput o 8 = (const 8 0x)\n",
        Parse(2, "invalid number `0x`"),
    ),
    (
        "design d\noutput o 8 = (const 8 0xg)\n",
        Parse(2, "invalid number `0xg`"),
    ),
    (
        "design d\noutput o 8 = (const 8 +)\n",
        Parse(2, "invalid number `+`"),
    ),
    (
        "design d\noutput o 8 = (const 8 1_0)\n",
        Parse(2, "invalid number `1_0`"),
    ),
    (
        "design d\ninput a 4294967296\n",
        Parse(2, "invalid width `4294967296`"),
    ),
    (
        "design d\ninput a 0x100000000\n",
        Parse(2, "invalid width `0x100000000`"),
    ),
    (
        "design d\ninput a 4294967295\n",
        Parse(2, "invalid signal width 4294967295 (must be 1..=128)"),
    ),
    (
        "design d\ninput a 0\n",
        Parse(2, "invalid signal width 0 (must be 1..=128)"),
    ),
    (
        "design d\nregister r 4 16\n",
        Parse(2, "constant 0x10 does not fit into 4 bits"),
    ),
    (
        "design d\noutput o 4 = (const 4 16)\n",
        Parse(2, "constant 0x10 does not fit into 4 bits"),
    ),
    // `%N` bound out of order, sparse and huge; spelled with a `+` or
    // leading zeros; one past `u32`.
    (
        "design d\ninput a 4\n\
         let %7 4 = (not a)\nlet %3 4 = (neg %7)\nlet %0 4 = (xor %3 %007)\n\
         output o 4 = (add %0 %0)\noutput p 4 = (sub %3 %+7)\n",
        Dump(
            "design d\ninput a 4\n\
             let %0 4 = (not a)\nlet %1 4 = (neg %0)\nlet %2 4 = (xor %1 %0)\n\
             output o 4 = (add %2 %2)\noutput p 4 = (sub %1 %0)\n",
        ),
    ),
    (
        "design d\ninput a 4\n\
         let %4294967295 4 = (not a)\nlet %1000000 4 = (neg a)\nlet %0 4 = (and a a)\n\
         let %2000000000 4 = (xor %4294967295 %1000000)\n\
         output o 4 = (or %2000000000 %2000000000)\noutput p 4 = (add %0 %0)\n",
        Dump(
            "design d\ninput a 4\nlet %0 4 = (xor (not a) (neg a))\n\
             output o 4 = (or %0 %0)\nlet %1 4 = (and a a)\noutput p 4 = (add %1 %1)\n",
        ),
    ),
    (
        "design d\ninput a 4\nlet %4294967296 4 = (not a)\n",
        Parse(3, "expected `%N`, found `%4294967296`"),
    ),
    (
        "design d\ninput a 4\nlet %1 4 = (not a)\noutput o 4 = %4294967297\n",
        Parse(4, "expected `%N`, found `%4294967297`"),
    ),
    (
        "design d\ninput a 4\nlet % 4 = (not a)\n",
        Parse(3, "expected `%N`, found `%`"),
    ),
    (
        "design d\ninput a 4\nlet %-1 4 = (not a)\n",
        Parse(3, "expected `%N`, found `%-1`"),
    ),
    (
        "design d\ninput a 4\nlet %x 4 = (not a)\n",
        Parse(3, "expected `%N`, found `%x`"),
    ),
    // Duplicates, also between a sparse and a dense spelling.
    (
        "design d\ninput a 4\nlet %0 4 = (not a)\nlet %0 4 = (neg a)\n",
        Parse(4, "duplicate binding `%0`"),
    ),
    (
        "design d\ninput a 4\nlet %900000 4 = (not a)\nlet %0 4 = (not a)\n\
         let %1 4 = (not a)\nlet %900000 4 = (neg a)\n",
        Parse(6, "duplicate binding `%900000`"),
    ),
    (
        "design d\ninput a 4\nlet %5 4 = (not a)\nlet %005 4 = (neg a)\n",
        Parse(4, "duplicate binding `%005`"),
    ),
    (
        "design d\ninput a 4\nlet %70 4 = (not a)\nlet %0 4 = a\nlet %1 4 = a\n\
         let %2 4 = a\nlet %3 4 = a\nlet %4 4 = a\nlet %70 4 = a\n",
        Parse(9, "duplicate binding `%70`"),
    ),
    (
        "design d\ntable @1 (0 1 2 3)\ntable @1 (0 1 2 3)\n",
        Parse(3, "duplicate table `@1`"),
    ),
    (
        "design d\ntable @4000000000 (0 1)\ntable @+4000000000 (1 0)\n",
        Parse(3, "duplicate table `@+4000000000`"),
    ),
    // Unknown bindings and tables.
    (
        "design d\ninput a 4\noutput o 4 = %0\n",
        Parse(3, "unknown binding `%0`"),
    ),
    (
        "design d\ninput a 4\nlet %0 4 = (not a)\noutput o 4 = %00000000001\n",
        Parse(4, "unknown binding `%00000000001`"),
    ),
    (
        "design d\ninput a 2\noutput o 2 = (rom 2 @1 a)\n",
        Parse(3, "unknown table `@1`"),
    ),
    (
        "design d\ninput a 2\ntable @0 (0 1 2 3)\noutput o 2 = (rom 2 @4294967296 a)\n",
        Parse(4, "expected `@N`, found `@4294967296`"),
    ),
    (
        "design d\ninput a 2\noutput o 2 = (rom 2 tab a)\n",
        Parse(3, "expected `@N`, found `tab`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = @0\n",
        Parse(3, "unknown signal `@0`"),
    ),
    // Tables: out of order, sparse, read inline, and every way to misspell
    // one.
    (
        "design d\ninput i 2\ntable @9 (3 2 1 0)\ntable @2 (0x0 0x1 0x2 0x3)\n\
         output o 2 = (rom 2 @2 i)\noutput p 2 = (rom 2 @9 i)\n\
         output q 4 = (rom 4 (5 6 7 0x8) i)\noutput r 2 = (rom 2 (0 1 2 3) i)\n",
        Dump(
            "design d\ninput i 2\ntable @0 (0x0 0x1 0x2 0x3)\noutput o 2 = (rom 2 @0 i)\n\
             table @1 (0x3 0x2 0x1 0x0)\noutput p 2 = (rom 2 @1 i)\n\
             table @2 (0x5 0x6 0x7 0x8)\noutput q 4 = (rom 4 @2 i)\n\
             output r 2 = (rom 2 @0 i)\n",
        ),
    ),
    (
        "design d\ninput i 2\ntable @0 (1 2 3 256)\noutput o 8 = (rom 8 @0 i)\n",
        Parse(4, "invalid rom: entry 0x100 does not fit into 8 bits"),
    ),
    (
        "design d\ninput i 2\ntable @0 (1 2 300 256)\noutput o 8 = (rom 8 @0 i)\n",
        Parse(4, "invalid rom: entry 0x12c does not fit into 8 bits"),
    ),
    (
        "design d\ninput i 2\ntable @0 (1 2 3)\noutput o 8 = (rom 8 @0 i)\n",
        Parse(4, "invalid rom: table has 3 entries, expected 4"),
    ),
    (
        "design d\ninput i 21\ntable @0 (1 2 3)\noutput o 8 = (rom 8 @0 i)\n",
        Parse(4, "invalid rom: index width 21 too large (max 20)"),
    ),
    (
        "design d\ninput i 2\ntable @0 (1 2 3 4)\noutput o 129 = (rom 129 @0 i)\n",
        Parse(4, "invalid signal width 129 (must be 1..=128)"),
    ),
    (
        "design d\ninput i 2\ntable @0 (1 2 3 4)\noutput o 0 = (rom 0 @0 i)\n",
        Parse(4, "invalid signal width 0 (must be 1..=128)"),
    ),
    (
        "design d\ninput i 2\noutput o 8 = (rom 8 (5 6 7) i)\n",
        Parse(3, "invalid rom: table has 3 entries, expected 4"),
    ),
    (
        "design d\ninput i 2\noutput o 8 = (rom 8 (5 6 (7) 8) i)\n",
        Parse(3, "expected `)` ending the rom table"),
    ),
    (
        "design d\ninput i 2\noutput o 8 = (rom 8 (5 6 7 8\n",
        Parse(3, "expected `)` ending the rom table"),
    ),
    (
        "design d\ninput i 2\noutput o 8 = (rom 8)\n",
        Parse(3, "expected `@N` or `(` after the rom width"),
    ),
    (
        "design d\ninput i 2\noutput o 8 = (rom (5 6 7 8) i)\n",
        Parse(3, "expected literal argument for `rom`"),
    ),
    (
        "design d\ntable @0\n",
        Parse(2, "expected `table @N (<v0> <v1> …)`"),
    ),
    (
        "design d\ntable   \n",
        Parse(2, "expected `table @N (<v0> <v1> …)`"),
    ),
    (
        "design d\ntable @0 1 2)\n",
        Parse(2, "expected `(` starting the table"),
    ),
    (
        "design d\ntable @0(1 2)\n",
        Parse(2, "expected `(` starting the table"),
    ),
    (
        "design d\ntable @0 (1 2) 3\n",
        Parse(2, "trailing tokens after table"),
    ),
    (
        "design d\ntable @0 (1 2)(\n",
        Parse(2, "trailing tokens after table"),
    ),
    (
        "design d\ntable 0 (1 2)\n",
        Parse(2, "expected `@N`, found `0`"),
    ),
    ("design d\ntable @0 (1 x)\n", Parse(2, "invalid number `x`")),
    // Trailing tokens, a missing `)`, and every other expression error.
    (
        "design d\ninput a 4\ninput b 4\noutput o 4 = a b\n",
        Parse(4, "trailing tokens after expression"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (not a))\n",
        Parse(3, "trailing tokens after expression"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (not a\n",
        Parse(3, "missing `)` after `not`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (not a a)\n",
        Parse(3, "missing `)` after `not`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (const 4 1 2)\n",
        Parse(3, "missing `)` after `const`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (const 4 16 2)\n",
        Parse(3, "constant 0x10 does not fit into 4 bits"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (add a\n",
        Parse(3, "unexpected end of expression"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (add a )\n",
        Parse(3, "unexpected end of expression"),
    ),
    (
        "design d\ninput a 4\noutput o 4 =\n",
        Parse(3, "unexpected end of expression"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = )\n",
        Parse(3, "unexpected end of expression"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = ()\n",
        Parse(3, "expected operator after `(`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = ((not a))\n",
        Parse(3, "expected operator after `(`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (nand a a)\n",
        Parse(3, "unknown operator `nand`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (NOT a)\n",
        Parse(3, "unknown operator `NOT`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (not =)\n",
        Parse(3, "unknown signal `=`"),
    ),
    (
        "design d\ninput a 4\nwire w 4 == a\n",
        Parse(3, "unknown signal `=`"),
    ),
    (
        "design d\ninput a 4\noutput o 2 = (slice a 3)\n",
        Parse(3, "expected literal argument for `slice`"),
    ),
    (
        "design d\ninput a 4\noutput o 2 = (slice a 1 2)\n",
        Parse(3, "invalid slice [1:2] of a 4-bit expression"),
    ),
    (
        "design d\ninput a 4\noutput o 1 = (slice a (const 4 0) 0)\n",
        Parse(3, "expected literal argument for `slice`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (const a 1)\n",
        Parse(3, "invalid number `a`"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (const 4)\n",
        Parse(3, "expected literal argument for `const`"),
    ),
    (
        "design d\ninput a 4\ninput b 8\noutput o 4 = (add a b)\n",
        Parse(4, "width mismatch in add: 4 vs 8"),
    ),
    (
        "design d\ninput a 4\ninput b 8\noutput o 8 = (shl b a)\n",
        Dump("design d\ninput a 4\ninput b 8\noutput o 8 = (shl b a)\n"),
    ),
    (
        "design d\ninput a 4\noutput o 4 = (mux a a a)\n",
        Parse(3, "mux condition must be 1 bit wide, got 4"),
    ),
    (
        "design d\ninput a 100\noutput o 128 = (concat a a)\n",
        Parse(3, "invalid signal width 200 (must be 1..=128)"),
    ),
    (
        "design d\ninput a 4\noutput o 8 = (not a)\n",
        Parse(3, "declared width 8 but expression is 4 bits"),
    ),
    // Every operator, one line each.
    (
        "design d\ninput a 4\ninput b 4\ninput c 1\n\
         output o1 4 = (and a b)\noutput o2 4 = (or a b)\noutput o3 4 = (xor a b)\n\
         output o4 4 = (add a b)\noutput o5 4 = (sub a b)\noutput o6 4 = (mul a b)\n\
         output o7 1 = (eq a b)\noutput o8 1 = (ne a b)\noutput o9 1 = (ult a b)\n\
         output o10 1 = (ule a b)\noutput o11 4 = (shl a b)\noutput o12 4 = (shr a b)\n\
         output o13 4 = (not a)\noutput o14 4 = (neg a)\noutput o15 1 = (redand a)\n\
         output o16 1 = (redor a)\noutput o17 1 = (redxor a)\n\
         output o18 4 = (mux c a b)\noutput o19 8 = (concat a b)\n\
         output o20 2 = (slice a 2 1)\n",
        Dump(
            "design d\ninput a 4\ninput b 4\ninput c 1\n\
             output o1 4 = (and a b)\noutput o2 4 = (or a b)\noutput o3 4 = (xor a b)\n\
             output o4 4 = (add a b)\noutput o5 4 = (sub a b)\noutput o6 4 = (mul a b)\n\
             output o7 1 = (eq a b)\noutput o8 1 = (ne a b)\noutput o9 1 = (ult a b)\n\
             output o10 1 = (ule a b)\noutput o11 4 = (shl a b)\noutput o12 4 = (shr a b)\n\
             output o13 4 = (not a)\noutput o14 4 = (neg a)\noutput o15 1 = (redand a)\n\
             output o16 1 = (redor a)\noutput o17 1 = (redxor a)\n\
             output o18 4 = (mux c a b)\noutput o19 8 = (concat a b)\n\
             output o20 2 = (slice a 2 1)\n",
        ),
    ),
    // Statement headers.
    (
        "design d\ninput a 4\nregister r 4 0\nnext a b = a\n",
        Parse(4, "unknown signal `a b`"),
    ),
    (
        "design d\ninput a 4\nregister r 4 0\nnext r\n",
        Parse(4, "expected `next <register> = <expr>`"),
    ),
    (
        "design d\ninput a 4\nregister r 4 0\nnext a = a\n",
        Parse(4, "signal `a` is not a register"),
    ),
    (
        "design d\ninput a 4\nregister r 4 0\nnext r = (not)\n",
        Parse(4, "unexpected end of expression"),
    ),
    (
        "design d\ninput a 4\nregister r 4 0\nnext  r\t= a\nnext r = (not r)\n",
        Dump("design d\ninput a 4\nregister r 4 0x0\nnext r = (not r)\n"),
    ),
    (
        "design d\ninput a\n",
        Parse(2, "expected `input <name> <width>`"),
    ),
    (
        "design d\ninput a 4 5\n",
        Parse(2, "expected `input <name> <width>`"),
    ),
    (
        "design d\ninput\n",
        Parse(2, "expected `input <name> <width>`"),
    ),
    (
        "design d\nregister r 4\n",
        Parse(2, "expected `register <name> <width> <reset>`"),
    ),
    ("design d\nregister r 4 x\n", Parse(2, "invalid number `x`")),
    ("design d\nregister r x 0\n", Parse(2, "invalid number `x`")),
    (
        "design d\ninput a 4\nwire a\n",
        Parse(3, "expected `= <expr>`"),
    ),
    (
        "design d\ninput a 4\nwire w 4 5 = a\n",
        Parse(3, "expected `<name> <width> = <expr>`"),
    ),
    (
        "design d\ninput a 4\nwire w 4 5 a\n",
        Parse(3, "expected `= <expr>`"),
    ),
    (
        "design d\ninput a 4\nwire w=a 4 = a\n",
        Parse(3, "expected `<name> <width> = <expr>`"),
    ),
    (
        "design d\ninput a 4\nwire w 4=a\noutput o 4=(not w)\n",
        Dump("design d\ninput a 4\nwire w 4 = a\noutput o 4 = (not w)\n"),
    ),
    (
        "design d\ninput a 4\nwire w x = a\n",
        Parse(3, "invalid number `x`"),
    ),
    (
        "design d\ninput a 4\nwire a 4 = a\n",
        Parse(3, "signal name `a` declared twice"),
    ),
    (
        "design d\ninput a 4\nwire w(1 4 = a\n",
        Parse(3, "invalid signal name `w(1`: '(' is reserved"),
    ),
    (
        "design d\ninput a 4\nlet x 4 = a\n",
        Parse(3, "expected `%N`, found `x`"),
    ),
    (
        "design d\ninput a 4\nlet x 4 = missing\n",
        Parse(3, "unknown signal `missing`"),
    ),
    (
        "design d\ninput a 4\nlet %0 8 = a\n",
        Parse(3, "declared width 8 but expression is 4 bits"),
    ),
    (
        "design d\ninput %a 4\n",
        Parse(2, "invalid signal name `%a`: a leading '%' is reserved"),
    ),
    (
        "design d\ninput a 4\nbogus a\n",
        Parse(3, "unknown keyword `bogus`"),
    ),
    (
        "design d\ninput(a 4\n",
        Parse(2, "unknown keyword `input(a`"),
    ),
    ("design d\nDESIGN e\n", Parse(2, "unknown keyword `DESIGN`")),
    // The `design` line.
    ("design d\ndesign e\n", Parse(2, "second `design` line")),
    ("input a 1\n", Parse(1, "statement before `design` line")),
    (
        "\n\n  # c\ndesign(d\n",
        Parse(4, "statement before `design` line"),
    ),
    (
        "design a b\n",
        Parse(1, "invalid design name `a b`: ' ' is reserved"),
    ),
    (
        "design \u{a0}a\u{2003}b \n",
        Parse(
            1,
            "invalid design name `a\u{2003}b`: '\\u{2003}' is reserved",
        ),
    ),
    ("design\n", Parse(1, "invalid design name ``: it is empty")),
    (
        "design a(b\n",
        Parse(1, "invalid design name `a(b`: '(' is reserved"),
    ),
    (
        "design @a\n",
        Parse(1, "invalid design name `@a`: a leading '@' is reserved"),
    ),
    ("", Parse(0, "empty netlist")),
    ("\n \n# only a comment\n\t\n", Parse(0, "empty netlist")),
    ("design d\n", Dump("design d\n")),
    // Validation errors come back as themselves, not as parse errors.
    (
        "design d\nregister r 4 0\n",
        Other("register `r` has no next-state expression"),
    ),
];

#[test]
fn every_edge_case_parses_to_its_pinned_answer() {
    let mut failures = Vec::new();
    for (text, want) in CASES {
        let got = netlist::parse(text);
        let ok = match (want, &got) {
            (Dump(dump), Ok(design)) => netlist::dump(design) == *dump,
            (
                Parse(line, message),
                Err(DesignError::Parse {
                    line: l,
                    message: m,
                }),
            ) => l == line && m == message,
            (Other(message), Err(e)) => {
                !matches!(e, DesignError::Parse { .. }) && e.to_string() == *message
            }
            _ => false,
        };
        if !ok {
            let got = match &got {
                Ok(design) => format!("Ok({:?})", netlist::dump(design)),
                Err(e) => format!("Err({e:?})"),
            };
            failures.push(format!("{text:?}\n    got {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} cases differ:\n{}",
        failures.len(),
        CASES.len(),
        failures.join("\n")
    );
}

/// Every text the table accepts is a fixpoint once dumped.
#[test]
fn accepted_texts_dump_to_fixpoints() {
    for (text, want) in CASES {
        if let Dump(dump) = want {
            let again = netlist::parse(dump).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(netlist::dump(&again), *dump, "{text:?}");
        }
    }
}
