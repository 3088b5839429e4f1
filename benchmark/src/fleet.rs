//! The deployed serving shape: an `HttpServer` in front of a `ShardRouter`
//! over two `HttpTransport` shards, each a `TopicServer` behind its own
//! listener on localhost. Shard listeners accept bodies as large as their
//! full slice, so epochs can be published to them.

use std::net::SocketAddr;
use std::sync::Arc;

use saber_core::model_io::snapshot_encoded_bytes;
use saber_core::LdaModel;
use saber_serve::{
    HttpConfig, HttpServer, HttpTransport, InferenceSnapshot, ServeConfig, ShardPlan, ShardRouter,
    TopicServer,
};

/// Shards in the fleet.
pub const N_SHARDS: usize = 2;

/// One shard: its in-process server and the listener in front of it.
#[derive(Debug)]
pub struct Shard {
    /// The shard's server (shared with its listener).
    pub server: Arc<TopicServer>,
    http: HttpServer,
}

/// A running fleet.
#[derive(Debug)]
pub struct Fleet {
    /// The router the front-end serves (shared with the front-end).
    pub router: Arc<ShardRouter<HttpTransport>>,
    /// The shards, in plan order.
    pub shards: Vec<Shard>,
    front: HttpServer,
}

impl Fleet {
    /// Boots the fleet over `model`: snapshot, slices, shard servers and
    /// listeners, transports, router and front-end.
    pub fn boot(model: &LdaModel, config: ServeConfig) -> Result<Fleet, String> {
        let plan = ShardPlan::uniform(model.vocab_size(), N_SHARDS).map_err(|e| e.to_string())?;
        let snapshot = InferenceSnapshot::from_model(model, config.sampler);
        let mut shards = Vec::new();
        let mut transports = Vec::new();
        for range in plan.ranges() {
            // A shard listener must accept a full slice on `/publish-shard`;
            // the default 1 MiB body limit refuses a 10k × 256 slice.
            let slice_bytes =
                snapshot_encoded_bytes(u64::from(range.end - range.start), model.n_topics() as u64)
                    .and_then(|b| usize::try_from(b).ok())
                    .ok_or("slice size overflows")?;
            let server = Arc::new(
                TopicServer::start(snapshot.shard(range.clone()), config)
                    .map_err(|e| e.to_string())?,
            );
            let http = HttpServer::bind(
                "127.0.0.1:0",
                Arc::clone(&server),
                None,
                HttpConfig {
                    shard_range: Some((range.start, range.end)),
                    max_body_bytes: slice_bytes.max(HttpConfig::default().max_body_bytes),
                    ..HttpConfig::default()
                },
            )
            .map_err(|e| format!("binding a shard listener: {e}"))?;
            transports.push(HttpTransport::connect(http.local_addr()).map_err(|e| e.to_string())?);
            shards.push(Shard { server, http });
        }
        let router = Arc::new(
            ShardRouter::with_transports(plan, transports, config).map_err(|e| e.to_string())?,
        );
        let front = HttpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&router),
            None,
            HttpConfig::default(),
        )
        .map_err(|e| format!("binding the front-end: {e}"))?;
        Ok(Fleet {
            router,
            shards,
            front,
        })
    }

    /// Address of the front-end.
    pub fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The front-end's HTTP counters.
    pub fn front_errors(&self) -> u64 {
        self.front.stats().errors
    }

    /// Stops the front-end and every shard listener.
    pub fn shutdown(self) {
        self.front.shutdown();
        drop(self.router);
        for shard in self.shards {
            shard.http.shutdown();
        }
    }
}
