open Net

type payload = Announce of Route.t | Withdraw of Prefix.t

type t = { sender : Asn.t; payload : payload }

let announce ~sender route = { sender; payload = Announce route }

let withdraw ~sender prefix = { sender; payload = Withdraw prefix }

let prefix t =
  match t.payload with
  | Announce r -> r.Route.prefix
  | Withdraw p -> p
