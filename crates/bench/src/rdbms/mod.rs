//! Page/buffer-pool relational executor — the Sybase column of the
//! paper's Table 3 (§5), the substitution for the unavailable commercial
//! RDBMS. Every tuple access pays buffer-management and latching costs
//! ([`page`], [`buffer`], [`heap`], [`hashindex`], [`executor`]),
//! exercising the same per-access overheads the paper attributes the
//! ~100× factor to.

pub mod buffer;
pub mod executor;
pub mod hashindex;
pub mod heap;
pub mod page;

pub use buffer::{BufferPool, Disk};
pub use executor::{client_server_join, Table};
pub use heap::Field;
