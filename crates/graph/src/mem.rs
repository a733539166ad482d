//! Memory-access helpers for the data plane's gather loops.

/// Bytes per cache line — the granularity [`prefetch_row`] hints at.
const LINE_BYTES: usize = 64;

/// Hints the CPU to pull the cache line holding `ptr` toward L1.
///
/// The serving path's hot loops are random gathers into arrays far
/// larger than cache (CSR targets, attribute rows); issuing the next
/// few iterations' loads ahead of use overlaps their miss latency with
/// the current iteration's work. A pure hint: prefetches never fault,
/// so any address is fine, and the call compiles to nothing on
/// architectures without a stable prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch(ptr as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Hints every 64-byte line of row `row` of `data`, read as rows of
/// `width` elements — a 64-float row spans four lines (five when it is
/// not line-aligned), and a hint on its first element alone leaves the
/// other three to miss one after another. A no-op for a row at or past
/// the end of `data`, so a lookahead may run off a walk's tail.
#[inline]
pub fn prefetch_row<T>(data: &[T], row: usize, width: usize) {
    let Some(row) = row
        .checked_mul(width)
        .and_then(|start| data.get(start..start.checked_add(width)?))
    else {
        return;
    };
    let bytes = std::mem::size_of_val(row);
    if bytes == 0 {
        return;
    }
    let base = row.as_ptr().cast::<u8>();
    let lead = base as usize % LINE_BYTES;
    for off in (0..lead + bytes).step_by(LINE_BYTES) {
        prefetch_read(base.wrapping_sub(lead).wrapping_add(off));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hint_is_a_no_op_at_and_past_the_end() {
        let data = vec![0f32; 4 * 64];
        for row in 0..4 {
            prefetch_row(&data, row, 64);
        }
        prefetch_row(&data, 4, 64);
        prefetch_row(&data, usize::MAX, 64);
        prefetch_row(&data, 1, usize::MAX);
        prefetch_row(&data, 0, 0);
        prefetch_row::<f32>(&[], 0, 64);
        // A partial last row is out of range too.
        prefetch_row(&data[..200], 3, 64);
    }
}
