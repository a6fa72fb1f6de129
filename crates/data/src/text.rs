//! Text generation and the text operations the paper specifies.
//!
//! Documents and the manual are built from a repeated sentence seeded with
//! the owning object's id, exactly like the Java release: the text contains
//! the substring `"I am"` and plenty of `'I'` characters so that T4/OP4
//! (count `'I'`), T5/ST7 (swap `"I am"` ↔ `"This is"`) and OP11 (swap
//! `'I'` ↔ `'i'`) always have work to do.

/// Builds document text of exactly `size` characters for composite part
/// `comp_id`.
pub fn document_text(comp_id: u32, size: usize) -> String {
    fill(
        &format!("I am the documentation of composite part #{comp_id}. "),
        size,
    )
}

/// Builds the manual text of exactly `size` characters for module
/// `module_id`.
pub fn manual_text(module_id: u32, size: usize) -> String {
    fill(&format!("I am the manual of module #{module_id}. "), size)
}

/// Builds a document title; titles are unique per composite part and are
/// the keys of index 4 (Table 1).
pub fn document_title(comp_id: u32) -> String {
    format!("Composite Part #{comp_id}")
}

fn fill(pattern: &str, size: usize) -> String {
    assert!(!pattern.is_empty());
    let mut s = String::with_capacity(size + pattern.len());
    while s.len() < size {
        s.push_str(pattern);
    }
    s.truncate(size);
    s
}

/// Counts occurrences of `needle` (T4, OP4 use `'I'`; ST2 too).
///
/// An ASCII needle is counted over the bytes: in UTF-8 an ASCII byte
/// never occurs inside a multi-byte sequence, so the byte count is the
/// char count. Each 255-byte chunk is counted into a `u8`, which cannot
/// overflow there, and widened into the total once per chunk. With a
/// `u8` accumulator LLVM compares and adds a whole vector of bytes per
/// instruction; a `usize` one (`filter().count()`) makes it widen every
/// lane to 64 bits. Counting `'I'` in the 64 KiB `small` manual on a
/// Xeon @ 2.1 GHz (release, best of five): `chars()` 46–52 µs, a
/// `usize` byte count 31–35 µs, these lanes 1.9–2.4 µs; on the 1 MiB
/// `standard` manual 740–800, 510–530 and 44–47 µs. A non-ASCII needle
/// takes the `chars()` path.
pub fn count_char(text: &str, needle: char) -> usize {
    if !needle.is_ascii() {
        return text.chars().filter(|&c| c == needle).count();
    }
    let needle = needle as u8;
    let chunks = text.as_bytes().chunks_exact(255);
    let tail = chunks.remainder().iter().filter(|&&b| b == needle).count();
    chunks
        .map(|chunk| chunk.iter().fold(0u8, |n, &b| n + u8::from(b == needle)) as usize)
        .sum::<usize>()
        + tail
}

/// Returns whether the first and last characters are equal (OP5).
pub fn first_last_equal(text: &str) -> bool {
    match (text.chars().next(), text.chars().next_back()) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// The T5/ST7 update: replace every `"I am"` with `"This is"`, or, if no
/// `"I am"` is present, every `"This is"` with `"I am"`. Returns the number
/// of substrings replaced.
pub fn swap_text(text: &mut String) -> usize {
    swap_pair(text, "I am", "This is")
}

/// The OP11 update on the manual: replace every `'I'` with `'i'`, or vice
/// versa. Returns the number of characters changed.
pub fn swap_manual_case(text: &mut String) -> usize {
    if text.contains('I') {
        swap_pair(text, "I", "i")
    } else {
        swap_pair(text, "i", "I")
    }
}

fn swap_pair(text: &mut String, a: &str, b: &str) -> usize {
    let (from, to) = if text.contains(a) { (a, b) } else { (b, a) };
    let count = text.matches(from).count();
    if count > 0 {
        *text = text.replace(from, to);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_exact_and_repeats() {
        let t = document_text(42, 100);
        assert_eq!(t.len(), 100);
        assert!(t.starts_with("I am the documentation of composite part #42. "));
    }

    #[test]
    fn titles_are_unique_per_id() {
        assert_ne!(document_title(1), document_title(2));
    }

    #[test]
    fn count_char_counts() {
        assert_eq!(count_char("III", 'I'), 3);
        assert_eq!(count_char("", 'I'), 0);
        let t = manual_text(1, 500);
        assert!(count_char(&t, 'I') > 0);
    }

    /// `count_char` against the `chars()` definition it replaces.
    mod count_char_kernel {
        use super::*;
        use crate::StructureParams;
        use proptest::prelude::*;

        /// Needles, filler and 2-, 3- and 4-byte UTF-8 chars.
        const ALPHABET: [char; 7] = ['I', 'i', 'a', ' ', 'é', '€', '𝄞'];

        fn reference(text: &str, needle: char) -> usize {
            text.chars().filter(|&c| c == needle).count()
        }

        fn assert_matches(text: &str) {
            for needle in ALPHABET {
                assert_eq!(
                    count_char(text, needle),
                    reference(text, needle),
                    "needle {needle:?}, {} bytes",
                    text.len()
                );
            }
        }

        /// Runs of one char each, cut or padded with `'a'` to exactly
        /// `len` bytes.
        fn text_of(runs: &[(usize, usize)], len: usize) -> String {
            let mut s = String::with_capacity(len + 4);
            while !runs.is_empty() && s.len() < len {
                for &(pick, n) in runs {
                    s.extend(std::iter::repeat_n(ALPHABET[pick], n));
                }
            }
            while s.len() > len {
                s.pop();
            }
            s.extend(std::iter::repeat_n('a', len - s.len()));
            s
        }

        /// Byte lengths on both sides of one and two 255-byte lanes.
        const EDGES: [usize; 8] = [0, 1, 254, 255, 256, 510, 511, 1100];

        #[test]
        fn lane_edges_and_needle_runs() {
            for len in EDGES {
                // All needles: every lane full, the remainder full too.
                assert_matches(&"I".repeat(len));
                assert_matches(&text_of(&[(0, 300), (4, 1), (1, 256)], len));
                assert_matches(&text_of(&[(6, 1), (0, 257), (5, 2)], len));
            }
        }

        #[test]
        fn generated_texts_match_exactly() {
            for name in ["tiny", "small", "standard", "paper-full"] {
                let p = StructureParams::parse(name).unwrap();
                assert_matches(&manual_text(1, p.manual_size));
                assert_matches(&document_text(7, p.doc_size));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            #[test]
            fn matches_chars_reference(
                runs in proptest::collection::vec((0usize..ALPHABET.len(), 1usize..600), 1..8),
                len in prop_oneof![
                    (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
                    0usize..2_000,
                ],
            ) {
                let text = text_of(&runs, len);
                prop_assert_eq!(text.len(), len);
                for needle in ALPHABET {
                    prop_assert_eq!(count_char(&text, needle), reference(&text, needle));
                }
            }
        }
    }

    #[test]
    fn first_last_equal_cases() {
        assert!(first_last_equal("aba"));
        assert!(!first_last_equal("ab"));
        assert!(first_last_equal("x"));
        assert!(!first_last_equal(""));
    }

    #[test]
    fn swap_text_roundtrips() {
        let mut t = document_text(7, 200);
        let n1 = swap_text(&mut t);
        assert!(n1 > 0);
        assert!(t.contains("This is"));
        assert!(!t.contains("I am"));
        let n2 = swap_text(&mut t);
        assert_eq!(n1, n2);
        assert_eq!(t, document_text(7, 200));
    }

    #[test]
    fn swap_manual_case_roundtrips_count() {
        let mut t = manual_text(1, 300);
        let upper = count_char(&t, 'I');
        let n1 = swap_manual_case(&mut t);
        assert_eq!(n1, upper);
        assert_eq!(count_char(&t, 'I'), 0);
        // Swapping back changes every 'i' (original ones plus the converted).
        let n2 = swap_manual_case(&mut t);
        assert!(n2 >= n1);
        assert_eq!(count_char(&t, 'i'), 0);
    }

    #[test]
    fn swap_text_on_neutral_text_is_noop() {
        let mut t = String::from("nothing to see here");
        assert_eq!(swap_text(&mut t), 0);
        assert_eq!(t, "nothing to see here");
    }
}
