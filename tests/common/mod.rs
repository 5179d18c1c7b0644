//! Helpers shared by the integration tests.

/// Every damaged form of `text` a crash or a bit flip can leave: each
/// char-boundary prefix, then each ASCII byte with its lowest bit flipped
/// (still ASCII, so the input stays a `&str`).
pub fn damaged(text: &str) -> impl Iterator<Item = String> + '_ {
    let cuts = (0..text.len())
        .filter(|&i| text.is_char_boundary(i))
        .map(|i| text[..i].to_string());
    let flips = (0..text.len())
        .filter(|&i| text.as_bytes()[i].is_ascii())
        .map(|i| {
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] ^= 1;
            String::from_utf8(bytes).expect("an ASCII flip stays UTF-8")
        });
    cuts.chain(flips)
}
