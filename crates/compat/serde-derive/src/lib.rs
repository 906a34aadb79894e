//! No-op derive macros for the offline `serde` stand-in.
//!
//! The companion crate (`ndlog-compat-serde`, aliased to `serde` in the
//! workspace) provides blanket implementations of its marker `Serialize` /
//! `Deserialize` traits, so the derive macros have nothing to generate:
//! they accept the item (including any `#[serde(...)]` helper attributes)
//! and emit an empty token stream. This keeps every
//! `#[derive(Serialize, Deserialize)]` in the tree source-compatible with
//! the real serde while requiring no network access to build.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// Accept and discard a `#[derive(Serialize)]` request.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accept and discard a `#[derive(Deserialize)]` request.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
