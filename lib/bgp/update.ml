open Net

type payload = Announce of Route.t | Withdraw of Prefix.t

type t = { sender : Asn.t; payload : payload; route : Route.t option }

let announce ~sender route = { sender; payload = Announce route; route = Some route }

let withdraw ~sender prefix = { sender; payload = Withdraw prefix; route = None }

let prefix t =
  match t.payload with
  | Announce r -> r.Route.prefix
  | Withdraw p -> p
