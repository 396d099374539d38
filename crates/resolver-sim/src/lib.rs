//! # resolver-sim
//!
//! DNS server models for the *Home is Where the Hijacking is* reproduction:
//!
//! * [`ZoneDb`] — the authoritative layer, shared by every recursor in a
//!   scenario. Reflector zones reproduce `whoami.akamai.com` and
//!   `o-o.myaddr.l.google.com` semantics: the answer depends on the egress
//!   address of the resolver that asks.
//! * [`RecursiveResolver`] — the "alternate resolver" interceptors forward
//!   to, with a TTL cache, software identity for CHAOS queries, NXDOMAIN
//!   wildcarding, and refusal modes ([`ResolverMode`]). What it is lives in
//!   a [`ResolverProfile`] every world with it shares.
//! * [`PublicResolverSite`] — anycast sites of Cloudflare/Google/Quad9/
//!   OpenDNS with the exact location-query semantics of paper Table 1.
//! * [`ForwarderCore`] — the Dnsmasq/XDNS-style forwarder state machine CPE
//!   devices embed; it answers `version.bind` itself, which is what the
//!   paper's step 2 detects, and relays the rest with only the transaction
//!   ID rewritten.
//!
//! Every server device here, and the CPE, takes a query in through one
//! front door, [`receive_query`]; the ones with a software identity answer
//! CHAOS server identification and any other non-IN class by one rule,
//! [`local_answer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod authoritative;
mod cache;
mod forwarder;
mod iterative;
mod memo;
mod public_site;
mod recursive;
mod server;
mod software;
mod zone;

pub use authoritative::{AuthoritativeServer, Delegation, ServedZone};
pub use cache::DnsCache;
pub use forwarder::{ForwarderCore, FwdAction};
pub use iterative::IterativeResolver;
pub use public_site::{PublicBrand, PublicResolverSite, SiteProfile};
pub use recursive::{RecursiveResolver, ResolverMode, ResolverProfile};
pub use server::{
    local_answer, local_reply_payload, receive_answer, receive_query, relay_payload, reply_packet,
    reply_payload, send_local_reply, send_reply, LocalReply,
};
pub use software::{ChaosPolicy, SoftwareProfile};
pub use zone::{
    ReflectKind, ReflectorZone, ResolveCtx, ResolveResult, StaticZone, Zone, ZoneAnswer, ZoneDb,
};
