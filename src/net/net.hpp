/**
 * @file
 * Umbrella header for psinet, the TCP front end of the psid service:
 *
 *  - net::wire       length-prefixed framed messages (wire.hpp)
 *  - net::FramedConn listener, wake pipe and framed connection shared
 *                    by the server, the router and the proxy
 *                    (conn.hpp)
 *  - net::Frontend   the client side of the server and the router:
 *                    listener, client connections, poll loop,
 *                    HELLO/STATS/METRICS/TRACE/DRAIN, drain
 *                    (frontend.hpp)
 *  - net::PsiServer  poll-based non-blocking server over EnginePool
 *  - net::PsiClient  blocking client library (also pipelined, and
 *                    resilient via submit(request, &policy))
 *  - net::FaultProxy deterministic fault-injection proxy for chaos
 *                    testing (faultnet.hpp)
 *
 * Frame layout and message types are specified in docs/PROTOCOL.md.
 */

#ifndef PSI_NET_NET_HPP
#define PSI_NET_NET_HPP

#include "net/client.hpp"
#include "net/conn.hpp"
#include "net/faultnet.hpp"
#include "net/frontend.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

#endif // PSI_NET_NET_HPP
