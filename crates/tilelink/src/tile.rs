//! Tile views over flat row-major buffers.

use std::ops::Range;

use tilelink_shmem::SharedBuffer;

/// A rectangular region of a row-major 2-D buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileRect {
    /// Row range of the tile.
    pub rows: Range<usize>,
    /// Column range of the tile.
    pub cols: Range<usize>,
}

impl TileRect {
    /// Creates a tile rectangle.
    pub fn new(rows: Range<usize>, cols: Range<usize>) -> Self {
        Self { rows, cols }
    }

    /// A tile covering full rows (`rows` × all `cols` columns).
    pub fn full_rows(rows: Range<usize>, cols: usize) -> Self {
        Self {
            rows,
            cols: 0..cols,
        }
    }

    /// Number of rows in the tile.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns in the tile.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of elements in the tile.
    pub fn numel(&self) -> usize {
        self.num_rows() * self.num_cols()
    }
}

/// Reads a tile from a row-major buffer with `row_stride` columns per row.
///
/// # Panics
///
/// Panics if the tile reaches past the end of the buffer.
pub fn read_tile(buf: &SharedBuffer, row_stride: usize, rect: &TileRect) -> Vec<f32> {
    let mut out = Vec::with_capacity(rect.numel());
    for r in rect.rows.clone() {
        out.extend(buf.read_range(r * row_stride + rect.cols.start, rect.num_cols()));
    }
    out
}

/// Writes a tile (row-major `rect.num_rows() × rect.num_cols()` data) into a
/// row-major buffer with `row_stride` columns per row.
///
/// # Panics
///
/// Panics if `data` does not match the tile size or the tile is out of bounds.
pub fn write_tile(buf: &SharedBuffer, row_stride: usize, rect: &TileRect, data: &[f32]) {
    assert_eq!(data.len(), rect.numel(), "tile data length mismatch");
    for (i, r) in rect.rows.clone().enumerate() {
        let row = &data[i * rect.num_cols()..(i + 1) * rect.num_cols()];
        buf.write_slice(r * row_stride + rect.cols.start, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_helpers() {
        let rect = TileRect::new(2..4, 1..4);
        assert_eq!(rect.num_rows(), 2);
        assert_eq!(rect.num_cols(), 3);
        assert_eq!(rect.numel(), 6);
        let full = TileRect::full_rows(0..2, 5);
        assert_eq!(full.num_cols(), 5);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let buf = SharedBuffer::zeros(6 * 4);
        let rect = TileRect::new(1..3, 1..3);
        write_tile(&buf, 4, &rect, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(read_tile(&buf, 4, &rect), vec![1.0, 2.0, 3.0, 4.0]);
        // untouched elements stay zero
        assert_eq!(buf.load(0), 0.0);
        assert_eq!(buf.load(4), 0.0);
    }

    #[test]
    #[should_panic(expected = "tile data length mismatch")]
    fn wrong_data_length_panics() {
        let buf = SharedBuffer::zeros(8);
        write_tile(&buf, 4, &TileRect::full_rows(0..1, 4), &[1.0, 2.0]);
    }
}
