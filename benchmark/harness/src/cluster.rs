//! Boots the ordering cluster a workload asks for, on either transport,
//! through the program's public APIs only.

use crate::spec::{Backend, Spec, F, N};
use hlf_obs::{Registry, Snapshot};
use hlf_smr::node::NodeHandle;
use hlf_transport::{PeerId, TcpConfig, TcpNetwork};
use ordering_core::frontend::Frontend;
use ordering_core::proc::{connect_frontend_endpoint, start_replica_endpoint};
use ordering_core::service::{OrderingService, ServiceOptions};
use std::sync::Arc;

const TCP_SECRET: &[u8] = b"hlf-benchmark";
const FIRST_FRONTEND_ID: u32 = 700;

/// The options every workload shares; a workload sets only block size
/// and request timeout.
fn service_options(spec: &Spec) -> ServiceOptions {
    ServiceOptions::new(F)
        .with_block_size(spec.block_size)
        .with_signing_threads(2)
        .with_request_timeout_ms(spec.request_timeout_ms)
        .with_pipeline_depth(4)
        .with_flush_on_batch_end(true)
}

/// A running cluster. `batch_max` stays at the `ServiceOptions` default (400).
pub enum Cluster {
    Hub(OrderingService),
    Tcp(TcpCluster),
}

pub struct TcpCluster {
    options: ServiceOptions,
    replica_nets: Vec<TcpNetwork>,
    frontend_nets: Vec<TcpNetwork>,
    handles: Vec<NodeHandle>,
    /// One per replica (consensus, smr, core and `transport.net.*` metrics),
    /// then one shared by the frontends and their sockets.
    registries: Vec<Arc<Registry>>,
}

fn bind(id: PeerId, registry: &Arc<Registry>) -> TcpNetwork {
    let listen = "127.0.0.1:0".parse().expect("loopback address");
    TcpNetwork::bind(TcpConfig::new(id, listen, TCP_SECRET).with_registry(Arc::clone(registry)))
        .expect("bind an ephemeral loopback port")
}

impl Cluster {
    pub fn boot(spec: &Spec) -> Cluster {
        let options = service_options(spec);
        match spec.backend {
            Backend::Hub => Cluster::Hub(OrderingService::start(N, options)),
            Backend::Tcp => {
                let mut registries: Vec<Arc<Registry>> =
                    (0..N).map(|i| Registry::new(format!("node-{i}"))).collect();
                let replica_nets: Vec<TcpNetwork> = (0..N)
                    .map(|i| bind(PeerId::replica(i as u32), &registries[i]))
                    .collect();
                for a in &replica_nets {
                    for b in &replica_nets {
                        if a.id() != b.id() {
                            a.add_peer(b.id(), b.local_addr());
                        }
                    }
                }
                let handles = (0..N)
                    .map(|i| {
                        start_replica_endpoint(
                            i,
                            N,
                            &options,
                            replica_nets[i].endpoint(),
                            Arc::clone(&registries[i]),
                        )
                    })
                    .collect();
                registries.push(Registry::new("frontends"));
                Cluster::Tcp(TcpCluster {
                    options,
                    replica_nets,
                    frontend_nets: Vec::new(),
                    handles,
                    registries,
                })
            }
        }
    }

    /// Connects the next frontend (on TCP: its own network, dialled both ways).
    pub fn frontend(&mut self) -> Frontend {
        match self {
            Cluster::Hub(service) => service.frontend(),
            Cluster::Tcp(tcp) => {
                let id = FIRST_FRONTEND_ID + tcp.frontend_nets.len() as u32;
                let registry = tcp.registries.last().expect("frontends registry");
                let net = bind(PeerId::client(id), registry);
                for replica in &tcp.replica_nets {
                    replica.add_peer(net.id(), net.local_addr());
                    net.add_peer(replica.id(), replica.local_addr());
                }
                let mut frontend = connect_frontend_endpoint(id, N, &tcp.options, net.endpoint());
                frontend.attach_obs(registry);
                tcp.frontend_nets.push(net);
                frontend
            }
        }
    }

    /// Every registry of the cluster folded into one snapshot: counters and
    /// histograms add up across replicas and frontends.
    pub fn obs(&self) -> Snapshot {
        let snapshots = match self {
            Cluster::Hub(service) => service.obs_snapshots(),
            Cluster::Tcp(tcp) => tcp.registries.iter().map(|r| r.snapshot()).collect(),
        };
        let mut merged = Snapshot::default();
        for snapshot in &snapshots {
            merged.merge(snapshot);
        }
        merged
    }

    /// Crashes replica 0, the leader of regency 0.
    pub fn crash_leader(&mut self) {
        match self {
            Cluster::Hub(service) => service.runtime_mut().crash(0),
            Cluster::Tcp(_) => unreachable!("no TCP workload injects a crash"),
        }
    }

    /// Stops every replica and joins every thread and socket of the cluster.
    pub fn shutdown(self) {
        match self {
            Cluster::Hub(service) => service.shutdown(),
            Cluster::Tcp(tcp) => {
                for handle in tcp.handles {
                    handle.shutdown();
                }
                for net in tcp.replica_nets.iter().chain(&tcp.frontend_nets) {
                    net.shutdown();
                }
            }
        }
    }
}
