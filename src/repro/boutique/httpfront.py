"""An HTTP front door for the boutique — what Locust actually talks to.

The paper's evaluation drives "a steady rate of HTTP requests" at the
application (§6.1).  Components are not HTTP; the frontend *component*
returns structured data.  This module is the thin edge tier that turns
browser-shaped requests into component calls, against any deployment
(single-process, multiprocess, or the microservice baseline — anything
with ``get(Frontend)``):

    GET  /                         home page (JSON render)
    GET  /product/<id>             product page
    GET  /cart                     view cart
    POST /cart                     add item           {product_id, quantity}
    POST /cart/checkout            place order        {currency, email, ...}
    GET  /_healthz                 liveness

Start it with ``await BoutiqueHttpServer(app).start()``; tests drive it
with a raw client.  Responses are JSON (the original renders HTML; the
data is the same).
"""

from __future__ import annotations

import json
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.boutique.frontend import Frontend
from repro.boutique.types import Address, CreditCard, HomePage, Money
from repro.core.errors import WeaverError
from repro.transport.http_rpc import HttpServer

DEFAULT_USER = "guest"


def _money(m: Money) -> dict[str, Any]:
    return {"currency": m.currency_code, "units": m.units, "nanos": m.nanos}


class BoutiqueHttpServer(HttpServer):
    """A JSON facade over the Frontend component, routed on the shared
    HTTP/1.1 server."""

    def __init__(self, app: Any, *, address: str = "tcp://127.0.0.1:0") -> None:
        super().__init__(self._respond, address=address)
        self._frontend: Frontend = app.get(Frontend)
        self.requests_served = 0

    async def _respond(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        status, payload = await self._route(method, target, headers, body)
        self.requests_served += 1
        return status, {"content-type": "application/json"}, json.dumps(payload).encode()

    async def _route(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, Any]:
        split = urlsplit(target)
        path = split.path
        query = parse_qs(split.query)
        user = query.get("user", [headers.get("x-user", DEFAULT_USER)])[0]
        currency = query.get("currency", ["USD"])[0]
        try:
            if method == "GET" and path == "/_healthz":
                return 200, {"status": "serving"}
            if method == "GET" and path == "/":
                return 200, self._render_home(await self._frontend.home(user, currency))
            if method == "GET" and path.startswith("/product/"):
                product_id = path[len("/product/") :]
                product = await self._frontend.browse_product(user, product_id, currency)
                return 200, {
                    "id": product.id,
                    "name": product.name,
                    "description": product.description,
                    "price": _money(product.price),
                    "categories": list(product.categories),
                }
            if method == "GET" and path == "/cart":
                items = await self._frontend.view_cart(user, currency)
                return 200, {
                    "items": [
                        {"product_id": i.product_id, "quantity": i.quantity} for i in items
                    ]
                }
            if method == "POST" and path == "/cart":
                form = json.loads(body or b"{}")
                total = await self._frontend.add_to_cart(
                    user, form["product_id"], int(form.get("quantity", 1))
                )
                return 200, {"cart_size": total}
            if method == "POST" and path == "/cart/checkout":
                form = json.loads(body or b"{}")
                order = await self._frontend.checkout(
                    user,
                    form.get("currency", currency),
                    Address(
                        form.get("street_address", "1600 Amphitheatre Pkwy"),
                        form.get("city", "Mountain View"),
                        form.get("state", "CA"),
                        form.get("country", "US"),
                        int(form.get("zip_code", 94043)),
                    ),
                    form.get("email", f"{user}@example.com"),
                    CreditCard(
                        form.get("credit_card_number", "4432-8015-6152-0454"),
                        int(form.get("credit_card_cvv", 672)),
                        int(form.get("credit_card_expiration_year", 2030)),
                        int(form.get("credit_card_expiration_month", 1)),
                    ),
                )
                return 200, {
                    "order_id": order.order_id,
                    "tracking_id": order.shipping_tracking_id,
                    "shipping_cost": _money(order.shipping_cost),
                    "total": _money(order.total(form.get("currency", currency))),
                    "items": len(order.items),
                }
            return 404, {"error": f"no route {method} {path}"}
        except (ValueError, KeyError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except WeaverError as exc:
            return 503, {"error": str(exc)}
        except Exception as exc:
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _render_home(self, home: HomePage) -> dict[str, Any]:
        return {
            "products": [
                {"id": p.id, "name": p.name, "price": _money(p.price)}
                for p in home.products
            ],
            "cart_size": home.cart_size,
            "ad": {"text": home.ad.text, "redirect_url": home.ad.redirect_url},
            "currencies": home.currency_codes,
        }
