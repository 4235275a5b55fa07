//! A mini JPEG codec standing in for nvJPEG.
//!
//! [`JpegEncode`] runs DCT + quantisation and then a zig-zag run-length /
//! magnitude-category entropy stage whose control flow and output offsets
//! depend on the image — the leak surface the paper reports for nvJPEG
//! encoding. [`JpegDecode`] is the constant-flow dequantise + IDCT path.

pub(crate) mod gpu;
pub mod host;

pub use gpu::{JpegDecode, JpegEncode, JpegEncodeFixedLength};
pub use host::synthetic_image;
