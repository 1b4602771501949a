//! The system under test: one `Aqua` behind an in-process `server::Server`
//! on loopback, plus the client-side counts the run reconciles against.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aqua::{Aqua, AquaConfig, RewriteChoice, SamplingStrategy, ServedAnswer};
use relation::{Relation, Value};
use server::{QueryBackend, Server, ServerConfig};

use crate::loadgen::HttpConn;
use crate::workload::{BATCH_ROWS, SAMPLE_ROWS};

/// A 5% Congress synopsis answered through the Integrated rewrite.
pub fn config(seed: u64) -> AquaConfig {
    AquaConfig {
        space: SAMPLE_ROWS,
        strategy: SamplingStrategy::Congress,
        rewrite: RewriteChoice::Integrated,
        seed,
        ..AquaConfig::default()
    }
}

/// A built system and the calls the benchmark made into it.
pub struct Sut {
    pub aqua: Arc<Aqua>,
    pub server: Server,
    http_attempts: AtomicU64,
    inproc_calls: AtomicU64,
    batches_inserted: AtomicU64,
}

impl Sut {
    /// Build the synopsis over `table` and bind the server on an ephemeral
    /// loopback port.
    pub fn start(table: Relation, seed: u64) -> Result<Sut, String> {
        let grouping = tpcd::LineitemSchema::ids().grouping_columns();
        let aqua = Arc::new(Aqua::build(table, grouping, config(seed)).map_err(|e| e.to_string())?);
        let backend: Arc<dyn QueryBackend> = aqua.clone();
        let server = Server::bind(ServerConfig::default(), backend).map_err(|e| e.to_string())?;
        Ok(Sut {
            aqua,
            server,
            http_attempts: AtomicU64::new(0),
            inproc_calls: AtomicU64::new(0),
            batches_inserted: AtomicU64::new(0),
        })
    }

    /// A new keep-alive connection to the server.
    pub fn connect(&self) -> Result<HttpConn, String> {
        HttpConn::connect(self.server.local_addr()).map_err(|e| e.to_string())
    }

    /// `POST /query` with `sql` as the body.
    pub fn http(&self, conn: &mut HttpConn, sql: &str) -> io::Result<u16> {
        self.http_attempts.fetch_add(1, Ordering::Relaxed);
        conn.post_query(sql)
    }

    /// In-process `answer_sql_shared`.
    pub fn answer(&self, sql: &str) -> aqua::Result<Arc<ServedAnswer>> {
        self.inproc_calls.fetch_add(1, Ordering::Relaxed);
        self.aqua.answer_sql_shared(sql)
    }

    /// `Aqua::insert_batch`, counting the rows it accepted.
    pub fn insert(&self, rows: &[Vec<Value>]) -> bool {
        let ok = self.aqua.insert_batch(rows).is_ok();
        if ok {
            self.batches_inserted.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// `(HTTP /query attempts, in-process answers, rows inserted)`.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.http_attempts.load(Ordering::Relaxed),
            self.inproc_calls.load(Ordering::Relaxed),
            self.batches_inserted.load(Ordering::Relaxed) * BATCH_ROWS as u64,
        )
    }
}
